package rdma

import "fmt"

// One-sided atomic memory verbs (§2.3 counts atomics among the memory
// verbs alongside reads and writes). Both operate on an 8-byte-aligned word
// of a remote registered region without involving the remote CPU, and both
// return the word's prior value — the semantics of IBV_WR_ATOMIC_FETCH_AND_ADD
// and IBV_WR_ATOMIC_CMP_AND_SWP. Atomicity is with respect to all fabric
// accesses of the word (the emulator uses the host's atomic instructions,
// which is strictly stronger than some NICs guarantee relative to local
// CPU access — protocols here only race atomics with atomics).

type atomicKind uint8

const (
	atomicFetchAdd atomicKind = iota
	atomicCompareSwap
)

type atomicRequest struct {
	kind    atomicKind
	remote  RemoteRegion
	off     int
	operand uint64 // delta for fetch-add, swap value for CAS
	compare uint64
	result  *uint64 // written by the QP goroutine, read after completion
}

// FetchAdd atomically adds delta to the remote word at the 8-byte-aligned
// offset and delivers the previous value to cb on a CQ poller goroutine.
func (c *Channel) FetchAdd(remoteOff int, remote RemoteRegion, delta uint64,
	cb func(old uint64, err error)) error {
	return c.postAtomic(atomicRequest{
		kind: atomicFetchAdd, remote: remote, off: remoteOff, operand: delta,
	}, cb)
}

// CompareSwap atomically replaces the remote word with swap if it equals
// compare, delivering the observed prior value to cb (the swap happened iff
// old == compare).
func (c *Channel) CompareSwap(remoteOff int, remote RemoteRegion, compare, swap uint64,
	cb func(old uint64, err error)) error {
	return c.postAtomic(atomicRequest{
		kind: atomicCompareSwap, remote: remote, off: remoteOff,
		compare: compare, operand: swap,
	}, cb)
}

// FetchAddSync is FetchAdd blocking for the result.
func (c *Channel) FetchAddSync(remoteOff int, remote RemoteRegion, delta uint64) (uint64, error) {
	type res struct {
		old uint64
		err error
	}
	ch := make(chan res, 1)
	if err := c.FetchAdd(remoteOff, remote, delta, func(old uint64, err error) {
		ch <- res{old, err}
	}); err != nil {
		return 0, err
	}
	r := <-ch
	return r.old, r.err
}

// CompareSwapSync is CompareSwap blocking for the result.
func (c *Channel) CompareSwapSync(remoteOff int, remote RemoteRegion, compare, swap uint64) (uint64, error) {
	type res struct {
		old uint64
		err error
	}
	ch := make(chan res, 1)
	if err := c.CompareSwap(remoteOff, remote, compare, swap, func(old uint64, err error) {
		ch <- res{old, err}
	}); err != nil {
		return 0, err
	}
	r := <-ch
	return r.old, r.err
}

func (c *Channel) postAtomic(req atomicRequest, cb func(old uint64, err error)) error {
	if req.off < 0 || req.off%8 != 0 || uint64(req.off)+8 > req.remote.Size {
		return fmt.Errorf("rdma: atomic at offset %d of %d-byte region (need aligned word): %w",
			req.off, req.remote.Size, ErrBounds)
	}
	req.result = new(uint64)
	return c.qp.post(workRequest{
		kind:   wrAtomic,
		atomic: req,
		cb: func(err error) {
			if cb != nil {
				cb(*req.result, err)
			}
		},
	})
}

// executeAtomic runs on the requester's QP goroutine, like the other
// one-sided verbs.
func (d *Device) executeAtomic(peer string, req atomicRequest) error {
	remoteDev, err := d.fabric.lookup(d.endpoint, peer)
	if err != nil {
		return err
	}
	if req.remote.Endpoint != peer {
		return fmt.Errorf("rdma: atomic on region of %s over channel to %s: %w",
			req.remote.Endpoint, peer, ErrBadConfig)
	}
	mr, err := remoteDev.lookupRegion(req.remote.RegionID)
	if err != nil {
		return err
	}
	if req.off+8 > mr.Size() {
		return fmt.Errorf("rdma: atomic at %d of %d-byte region: %w", req.off, mr.Size(), ErrBounds)
	}
	switch req.kind {
	case atomicFetchAdd:
		*req.result = atomicAdd64(mr.data, req.off, req.operand)
	case atomicCompareSwap:
		*req.result = atomicCAS64(mr.data, req.off, req.compare, req.operand)
	}
	remoteDev.landed.bump()
	return nil
}
