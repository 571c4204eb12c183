package rdma

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// Deadline/retry hardening for the transfer protocols. The paper assumes a
// lossless fabric; production deployments do not get one. Every blocking
// operation in this file is bounded by a deadline and retries transient
// failures with exponential backoff, so a misbehaving peer yields a typed
// error instead of a hung scheduler.

// ErrTimeout is returned when a bounded transfer operation exhausts its
// deadline or retry budget. It always wraps the last underlying error, so
// errors.Is can still see e.g. ErrUnreachable through it.
var ErrTimeout = errors.New("rdma: transfer deadline exceeded")

// ErrCanceled is returned when TransferOpts.Canceled reports the caller no
// longer wants the transfer. Like ErrTimeout it is fatal: a canceled
// operation must never be retried, because the memory it would write into
// may already be reused by whoever aborted it.
var ErrCanceled = errors.New("rdma: transfer canceled")

// Retryable classifies an error as transient (worth retrying: the fault may
// heal) versus fatal (misconfiguration, closed device, or out-of-bounds
// access that no retry can fix). ErrTimeout itself is fatal: it means a
// retry budget was already spent. ErrQPBusy (mux lease exhaustion) is
// transient too, but retryLoop handles it on its own backoff curve — slot
// contention is expected at scale and must not burn the fault budget.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, ErrTimeout) {
		return false
	}
	return errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrInjected) ||
		errors.Is(err, ErrBusy) ||
		errors.Is(err, ErrQPBusy) ||
		errors.Is(err, ErrRPCTimeout)
}

// Defaults for TransferOpts zero values.
const (
	DefaultDeadline   = 10 * time.Second
	DefaultMaxRetries = 64
	DefaultBackoff    = 50 * time.Microsecond
	DefaultMaxBackoff = 10 * time.Millisecond
)

// Flag waits (waitCond, also the lossy ack wait) spin briefly, then park on
// the device's landed-write signal. The park normally ends when the awaited word
// lands; maxPark only bounds it, so deadline and cancel checks (and the lossy
// receiver's NACK pacing) still run when nothing lands.
const (
	waitSpins = 256
	maxPark   = 5 * time.Microsecond
)

// TransferOpts bounds a blocking transfer operation: a total deadline, a
// retry budget for transient failures, and the backoff curve between
// attempts. The zero value selects the defaults above.
type TransferOpts struct {
	// Deadline is the total wall-clock budget for the operation, including
	// all retries and backoff waits.
	Deadline time.Duration
	// MaxRetries caps how many times a transient failure is retried.
	MaxRetries int
	// Backoff is the wait before the first retry; it doubles each retry.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// OnRetry, if non-nil, is invoked with the transient error before each
	// retry (for counters).
	OnRetry func(err error)
	// Stripes splits large payloads into up to this many chunks (clamped to
	// [1, MaxStripes]) spread over the endpoint's lanes; 0 or 1 keeps the
	// single-lane protocol. Striping only takes effect on endpoints with
	// more than one lane (AddLane, or a lease of Device.LaneCount lanes).
	Stripes int
	// CoalesceThreshold batches transfers smaller than this many bytes to
	// the same peer into one coalesced slot (see CoalescedSender); 0
	// disables coalescing. The rdma layer only carries the knob — grouping
	// happens in the distributed edge setup.
	CoalesceThreshold int
	// OnStripe, if non-nil, observes every issued stripe as (lane index,
	// bytes on the wire) — the per-lane byte accounting hook.
	OnStripe func(lane, bytes int)
	// OnDoorbell, if non-nil, observes each doorbell-batched post as (lane
	// index, chunks in the flush): a lane's stripe chunks entering the send
	// queue together instead of one post per chunk.
	OnDoorbell func(lane, chunks int)
	// OnComplete, if non-nil, observes each successful blocking transfer
	// (SendRetry / FetchRetry / FlushRetry) as (payload bytes, wall duration
	// including retries and backoff). The distributed layer feeds per-edge
	// transfer-latency histograms from it.
	OnComplete func(bytes int, d time.Duration)
	// OnRetransmit, if non-nil, observes each NACK the lossy protocol serves
	// with the number of chunks selectively re-sent (see LossySender). It
	// never fires for whole-transfer retries — those go through OnRetry.
	OnRetransmit func(chunks int)
	// Canceled, if non-nil, is polled between retry attempts and backoff
	// waits; once it returns true the operation fails fast with ErrCanceled
	// instead of retrying. Executors wire it to their iteration's abort
	// flag so a transfer outliving a failed step cannot keep re-sending —
	// a retry that lands after the fabric heals would write into memory a
	// later iteration already owns.
	Canceled func() bool
}

// deadline is the absolute deadline of an operation starting now.
func (o TransferOpts) deadline() time.Time {
	return time.Now().Add(o.withDefaults().Deadline)
}

func (o TransferOpts) withDefaults() TransferOpts {
	if o.Deadline <= 0 {
		o.Deadline = DefaultDeadline
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	if o.Stripes <= 0 {
		o.Stripes = 1
	}
	if o.Stripes > MaxStripes {
		o.Stripes = MaxStripes
	}
	return o
}

// waitCond polls cond until it reports true, the caller cancels, or the
// deadline passes. It spins briefly, then parks on dev's landed-write
// signal between checks, so a long wait burns no core and still wakes as
// soon as the peer's write lands. The sequence is read before cond, so a
// write landing between the check and the park is never missed.
func waitCond(dev *Device, o TransferOpts, deadline time.Time, what string, cond func() bool) error {
	for spins := 0; ; spins++ {
		seq := dev.LandedSeq()
		if cond() {
			return nil
		}
		if spins <= waitSpins {
			runtime.Gosched()
			continue
		}
		if o.Canceled != nil && o.Canceled() {
			return fmt.Errorf("rdma: %s: %w", what, ErrCanceled)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rdma: %s: no progress by the deadline: %w", what, ErrTimeout)
		}
		dev.WaitLanded(seq, maxPark)
	}
}

// MemcpyRetry is a blocking Memcpy with bounded retry: transient failures
// (drops, transient unreachability) are retried with exponential backoff
// until the opts deadline. Safe only for idempotent transfers — both the
// protocols in this package re-send identical bytes.
func (c *Channel) MemcpyRetry(localOff int, local *MemRegion, remoteOff int, remote RemoteRegion,
	size int, dir Op, opts TransferOpts) error {
	return retryLoop(opts, opLabel{dir.String(), size, c.remote}, nil,
		func([]*Channel, time.Time) error {
			return c.MemcpySync(localOff, local, remoteOff, remote, size, dir)
		})
}

// CallRetry is Call with bounded retry: RPC timeouts and transient send
// failures are retried until the opts deadline. The per-attempt timeout is
// derived from the deadline and the retry budget. Handlers must be
// idempotent (address distribution is).
func (c *Channel) CallRetry(method string, req []byte, opts TransferOpts) ([]byte, error) {
	o := opts.withDefaults()
	perCall := o.Deadline / 4
	if perCall <= 0 {
		perCall = o.Deadline
	}
	var resp []byte
	err := retryLoop(o, opLabel{"rpc " + strconv.Quote(method), -1, c.remote}, nil,
		func([]*Channel, time.Time) error {
			var err error
			resp, err = c.Call(method, req, perCall)
			return err
		})
	return resp, err
}

// --- Static placement ---

// SendRetry transfers the staging buffer like Send, but blocks until the
// write completed, retrying transient failures within the opts budget; with
// opts.Stripes > 1 and several lanes the payload goes out striped (see
// SendStriped). The retry is safe either way: a failed attempt never made
// the flag visible (the engine writes the flag only after every chunk
// landed), and a re-send writes the same bytes.
func (s *StaticSender) SendRetry(opts TransferOpts) error {
	return s.sendRetryFrom(nil, opts)
}

// SendRetryFrom is SendRetry for a payload that lives outside registered
// memory: instead of staging all the bytes up front (SendFrom) and only then
// posting the first write, each attempt copies the payload into staging in
// rounds of one chunk per lane, posting each round as soon as it is staged —
// so one round's writes fly while the next round is copied (sender-side
// copy/transmit pipelining). A retry re-copies the same bytes, which is
// safe: an attempt ends only after every chunk it posted completed, so no
// copy can overlap an in-flight write, and a failed attempt never made the
// flag visible.
func (s *StaticSender) SendRetryFrom(payload []byte, opts TransferOpts) error {
	if err := s.checkPayload(payload); err != nil {
		return err
	}
	return s.sendRetryFrom(payload, opts)
}

func (s *StaticSender) sendRetryFrom(payload []byte, opts TransferOpts) error {
	o := opts.withDefaults()
	return retryLoop(o, opLabel{"static send", s.desc.PayloadSize, s.ch.Remote()}, s.src,
		func(lanes []*Channel, _ time.Time) error { return s.plan(lanes, payload, o).run() })
}

// Wait blocks until a complete tensor has arrived (Poll returns true) or
// the opts deadline expires. A receiver cannot distinguish a slow sender
// from a partitioned one, so the failure is a typed ErrTimeout; callers
// with fabric knowledge may refine it.
func (r *StaticReceiver) Wait(opts TransferOpts) error {
	return waitCond(r.mr.dev, opts, opts.deadline(), "static recv flag", r.Poll)
}

// --- Dynamic allocation ---

// SendRetry stages and sends the metadata like Send, but blocks until the
// write completed, treating both ErrBusy (previous transfer not yet acked)
// and transient transfer failures as retryable within the opts budget.
func (s *DynSender) SendRetry(payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64, opts TransferOpts) error {
	return retryLoop(opts, opLabel{"dyn send", payloadSize, s.ch.Remote()}, s.src,
		func(lanes []*Channel, _ time.Time) error {
			x, err := s.plan(lanes, payloadMR, payloadOff, payloadSize, dtype, dims)
			return runRearming(x, err, s.mr, s.off+dynMetaAckOff)
		})
}

// WaitMeta blocks until the metadata flag is set and returns the decoded
// metadata, or fails with a typed ErrTimeout at the opts deadline.
func (r *DynReceiver) WaitMeta(opts TransferOpts) (DynMeta, error) {
	var meta DynMeta
	err := waitCond(r.mr.dev, opts, opts.deadline(), "dyn metadata flag", func() bool {
		m, ok := r.Poll()
		if ok {
			meta = m
		}
		return ok
	})
	return meta, err
}

// FetchRetry is Fetch with bounded retry. With opts.Stripes > 1 and several
// lanes the payload is pulled in chunks over distinct channels. A failed
// attempt re-reads and re-acks as a whole; both are idempotent (the sender
// cannot reuse the source buffer before the ack, and the ack is a constant
// one-word write), and every attempt draws on the one opts deadline.
func (r *DynReceiver) FetchRetry(meta DynMeta, senderScratch DynSlotDesc,
	dst *MemRegion, dstOff int, opts TransferOpts) error {
	o := opts.withDefaults()
	r.mr.ClearFlag(r.off + dynMetaFlagOff)
	return retryLoop(o, opLabel{"dyn fetch", int(meta.PayloadSize), r.sender}, r.src,
		func(lanes []*Channel, _ time.Time) error {
			return r.fetch(lanes, meta, senderScratch, dst, dstOff, o).run()
		})
}
