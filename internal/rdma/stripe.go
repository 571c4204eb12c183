package rdma

import (
	"encoding/binary"
	"fmt"
)

// Multi-QP striping: one logical transfer is chunked into several Memcpys
// issued on distinct channels of the per-peer QP group, so a large tensor
// can use the fabric parallelism the device model provides (§2.3 groups
// multiple QPs per peer with CQs assigned round-robin for exactly this).
// StripeDesc.Chunks is the one chunking rule; the engine (engine.go) posts,
// joins and commits the chunks.

// MaxStripes bounds the stripe count of one transfer (and the per-lane
// metrics arrays sized off it).
const MaxStripes = 16

// stripeAlign keeps every stripe boundary 8-byte aligned so the word-atomic
// tail of each chunk's orderedCopy never straddles chunks.
const stripeAlign = 8

// StripeDesc describes how one payload is split across lanes.
type StripeDesc struct {
	// PayloadSize is the total transfer size in bytes.
	PayloadSize uint64
	// Stripes is the requested lane count; Chunks clamps it to
	// [1, MaxStripes] and to the payload size.
	Stripes uint32
}

// stripeDescWireSize is the encoded size of a StripeDesc.
const stripeDescWireSize = 12

// Marshal encodes the descriptor (payloadSize u64, stripes u32, both LE).
func (d StripeDesc) Marshal() []byte {
	buf := make([]byte, stripeDescWireSize)
	binary.LittleEndian.PutUint64(buf, d.PayloadSize)
	binary.LittleEndian.PutUint32(buf[8:], d.Stripes)
	return buf
}

// UnmarshalStripeDesc decodes a descriptor produced by Marshal.
func UnmarshalStripeDesc(buf []byte) (StripeDesc, error) {
	if len(buf) < stripeDescWireSize {
		return StripeDesc{}, fmt.Errorf("rdma: short stripe descriptor (%d bytes)", len(buf))
	}
	return StripeDesc{
		PayloadSize: binary.LittleEndian.Uint64(buf),
		Stripes:     binary.LittleEndian.Uint32(buf[8:]),
	}, nil
}

// StripeChunk is one contiguous piece of a striped payload.
type StripeChunk struct {
	Off, Size int
}

// Chunks partitions [0, PayloadSize) into at most min(Stripes, MaxStripes)
// disjoint, covering, non-empty chunks whose boundaries are 8-byte aligned
// (the last chunk absorbs the remainder). It is total on arbitrary
// descriptors: a zero payload yields nil, and out-of-range stripe counts are
// clamped rather than rejected.
func (d StripeDesc) Chunks() []StripeChunk { return d.appendChunks(nil) }

// appendChunks appends the Chunks partition to dst (the engine plans into a
// buffer it carries, so a transfer allocates no chunk list).
func (d StripeDesc) appendChunks(dst []StripeChunk) []StripeChunk {
	size := int(d.PayloadSize)
	if size <= 0 || uint64(size) != d.PayloadSize {
		return nil
	}
	n := int(d.Stripes)
	if n < 1 {
		n = 1
	}
	if n > MaxStripes {
		n = MaxStripes
	}
	if n > size {
		n = size
	}
	chunk := (size + n - 1) / n
	chunk = (chunk + stripeAlign - 1) / stripeAlign * stripeAlign
	if dst == nil {
		dst = make([]StripeChunk, 0, n)
	}
	for off := 0; off < size; off += chunk {
		dst = append(dst, StripeChunk{Off: off, Size: min(chunk, size-off)})
	}
	return dst
}

// EffectiveStripes reports how many chunks a transfer of payloadSize bytes
// is actually split into at the requested stripe count (small payloads use
// fewer lanes than requested).
func EffectiveStripes(payloadSize, stripes int) int {
	return len(StripeDesc{PayloadSize: uint64(payloadSize), Stripes: uint32(stripes)}.Chunks())
}

// AddLane registers an additional channel for striped sends. All lanes must
// target the edge's remote endpoint; callers pass distinct QP indices so the
// stripes actually ride different queue pairs.
func (s *StaticSender) AddLane(ch *Channel) error { return s.addLane(s.ch.Remote(), ch) }

// SendStriped transfers the staging buffer like Send, but splits the payload
// into up to `stripes` chunks spread over the sender's lanes, one doorbell
// batch per lane, and writes the tail flag only after every chunk completed
// (see the engine). onStripe, if non-nil, observes (lane, bytes) for each
// issued write. With one effective chunk or one lane it is the single
// ascending payload+flag write of Send. cb fires on a CQ poller when the
// flag write (or, after every chunk drained, the first failure) completes;
// a failed striped send leaves no flag visible, so re-sending the identical
// bytes is safe.
func (s *StaticSender) SendStriped(stripes int, onStripe func(lane, bytes int), cb func(error)) error {
	lanes, release, err := s.src.AcquireLanes(s.ch.Remote())
	if err != nil {
		return err
	}
	s.plan(lanes, nil, TransferOpts{Stripes: stripes, OnStripe: onStripe}).start(func(err error) {
		release()
		if cb != nil {
			cb(err)
		}
	})
	return nil
}

// AddLane registers an additional channel for striped fetches (the dyn-path
// receiver issues the RDMA reads, so striping lives on its side).
func (r *DynReceiver) AddLane(ch *Channel) error { return r.addLane(r.sender, ch) }
