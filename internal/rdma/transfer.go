package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// This file implements the paper's two tensor-transfer protocols on top of
// the device's Memcpy interface.
//
// Static placement (§3.2, Figure 5): the receiver preallocates the
// destination tensor in registered memory with a flag word at its tail and
// distributes the slot's address; the sender one-sided-writes payload+flag
// in one ascending-order transfer; the receiver polls the flag, consumes the
// tensor, and clears the flag for the next iteration.
//
// Dynamic allocation (§3.3, Figure 6): shapes change across mini-batches but
// rank does not, so the receiver preallocates only a fixed-size metadata
// slot. The sender writes (dims, dtype, source address) plus flag; the
// receiver polls, allocates the tensor, and pulls the payload with a
// one-sided RDMA read, then posts a one-word ack back into the sender's
// scratch block so the sender knows the source buffer may be reused (in the
// paper this reuse gating comes from the data-flow graph's loop control
// dependency; the explicit ack makes the protocol self-contained).

// ErrBusy is returned when a sender is asked to transmit before the
// previous transfer on the edge has been consumed.
var ErrBusy = errors.New("rdma: previous transfer not yet consumed")

// StaticSlotSize returns the region bytes needed for a static slot holding
// payloadSize payload bytes (payload + tail flag, rounded to alignment).
func StaticSlotSize(payloadSize int) int {
	return alignUp(payloadSize) + FlagWordSize
}

func alignUp(n int) int { return (n + 7) / 8 * 8 }

// StaticSlotDesc addresses a receiver-side static slot from the sender.
type StaticSlotDesc struct {
	Region      RemoteRegion
	Off         int
	PayloadSize int
}

// Marshal encodes the descriptor for address distribution.
func (d StaticSlotDesc) Marshal() []byte {
	region := d.Region.Marshal()
	buf := make([]byte, 0, len(region)+16)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.PayloadSize))
	return append(buf, region...)
}

// UnmarshalStaticSlotDesc decodes a descriptor produced by Marshal.
func UnmarshalStaticSlotDesc(buf []byte) (StaticSlotDesc, error) {
	var d StaticSlotDesc
	if len(buf) < 16 {
		return d, fmt.Errorf("rdma: short static slot descriptor (%d bytes)", len(buf))
	}
	d.Off = int(binary.LittleEndian.Uint64(buf))
	d.PayloadSize = int(binary.LittleEndian.Uint64(buf[8:]))
	region, err := UnmarshalRemoteRegion(buf[16:])
	if err != nil {
		return d, err
	}
	d.Region = region
	return d, nil
}

// StaticReceiver is the receiving end of a statically placed tensor slot.
// The payload bytes live at [off, off+payloadSize) of the region; the flag
// word sits at the aligned tail. The slot is never freed during the
// computation, so its address never changes (§4).
type StaticReceiver struct {
	mr          *MemRegion
	off         int
	payloadSize int
}

// NewStaticReceiver claims [off, off+StaticSlotSize(payloadSize)) of mr as a
// static receive slot and clears its flag.
func NewStaticReceiver(mr *MemRegion, off, payloadSize int) (*StaticReceiver, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: static slot offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, StaticSlotSize(payloadSize)); err != nil {
		return nil, err
	}
	r := &StaticReceiver{mr: mr, off: off, payloadSize: payloadSize}
	mr.ClearFlag(r.flagOff())
	return r, nil
}

func (r *StaticReceiver) flagOff() int { return r.off + alignUp(r.payloadSize) }

// Desc returns the remotely shareable slot address.
func (r *StaticReceiver) Desc() StaticSlotDesc {
	return StaticSlotDesc{Region: r.mr.Descriptor(), Off: r.off, PayloadSize: r.payloadSize}
}

// Poll reports whether a complete tensor has arrived (acquire semantics).
func (r *StaticReceiver) Poll() bool { return r.mr.PollFlag(r.flagOff()) }

// Payload returns the slot's payload bytes. Valid to read only after Poll
// has returned true (or before any sender knows the address).
func (r *StaticReceiver) Payload() []byte {
	return r.mr.Bytes()[r.off : r.off+r.payloadSize]
}

// Consume clears the flag for the next iteration. The paper's receiver
// "clears the flag for future use and then activates the graph nodes that
// depend on this transferred tensor".
func (r *StaticReceiver) Consume() { r.mr.ClearFlag(r.flagOff()) }

// StaticSender is the sending end of a statically placed tensor edge. Its
// staging buffer lives in registered memory so the graph analyzer can place
// the source tensor there directly (zero-copy); the flag word rides at the
// staging buffer's tail and is transferred together with the payload in one
// ascending-order write.
type StaticSender struct {
	ch   *Channel
	mr   *MemRegion
	off  int
	desc StaticSlotDesc
	laneSet
}

// NewStaticSender claims [off, off+StaticSlotSize(desc.PayloadSize)) of the
// local region as staging for sends to the given remote slot.
func NewStaticSender(ch *Channel, mr *MemRegion, off int, desc StaticSlotDesc) (*StaticSender, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: static send offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, StaticSlotSize(desc.PayloadSize)); err != nil {
		return nil, err
	}
	if desc.Region.Endpoint != ch.Remote() {
		return nil, fmt.Errorf("rdma: slot on %s but channel to %s: %w",
			desc.Region.Endpoint, ch.Remote(), ErrBadConfig)
	}
	return &StaticSender{ch: ch, mr: mr, off: off, desc: desc, laneSet: laneSet{FixedLanes{ch}}}, nil
}

// Buffer returns the sender-side staging payload bytes. When graph analysis
// succeeds, the source tensor is allocated directly here and Send performs
// no copy at all.
func (s *StaticSender) Buffer() []byte {
	return s.mr.Bytes()[s.off : s.off+s.desc.PayloadSize]
}

// Send transfers the staging buffer (payload + set flag) to the remote slot
// with a single one-sided write. cb fires on a CQ poller when the write
// completes locally.
func (s *StaticSender) Send(cb func(error)) error { return s.SendStriped(1, nil, cb) }

// plan is one static send as an engine transfer: the payload chunks, then
// the slot's tail flag as the commit word — fused into a single ascending
// payload+flag write when the plan has one chunk. payload, when non-nil, is
// staged chunk by chunk as the chunks are posted.
func (s *StaticSender) plan(lanes []*Channel, payload []byte, o TransferOpts) *xfer {
	s.mr.SetFlagLocal(s.off + alignUp(s.desc.PayloadSize))
	x := slotWrite(lanes, s.mr, s.off, s.desc.Region, s.desc.Off, s.desc.PayloadSize, o.Stripes)
	x.stage, x.onStripe, x.onDoorbell = payload, o.OnStripe, o.OnDoorbell
	return x
}

// SendFrom copies payload into the staging buffer first and then performs
// Send: the RDMA.cp path of §5.1, used when graph analysis is disabled and
// the source tensor is not RDMA-accessible.
func (s *StaticSender) SendFrom(payload []byte, cb func(error)) error {
	if err := s.checkPayload(payload); err != nil {
		return err
	}
	copy(s.Buffer(), payload)
	return s.Send(cb)
}

// checkPayload rejects an unstaged payload that does not fill the slot.
func (s *StaticSender) checkPayload(payload []byte) error {
	if len(payload) != s.desc.PayloadSize {
		return fmt.Errorf("rdma: payload %d bytes, slot holds %d: %w",
			len(payload), s.desc.PayloadSize, ErrBounds)
	}
	return nil
}

// --- Dynamic allocation protocol ---

// MaxDims is the maximum tensor rank the fixed-size metadata block can
// describe. The paper relies on the rank being invariant across iterations.
const MaxDims = 8

// Metadata block layout (all little-endian, fixed 120 bytes):
//
//	0   dtype     uint32
//	4   rank      uint32
//	8   dims      [MaxDims]uint64
//	72  srcRegion uint32   (sender payload region id)
//	76  _pad      uint32
//	80  srcSize   uint64   (sender payload region size)
//	88  srcOff    uint64   (payload offset within region)
//	96  payload   uint64   (payload byte count)
//	104 flag      uint64   (written last, ascending order)
//	112 ack       uint64   (receiver writes 1 here after its read completes)
const (
	dynMetaFlagOff = 104
	dynMetaAckOff  = 112
	// DynMetaSize is the full metadata block size including flag and ack.
	DynMetaSize = 120
)

// DynMeta is the decoded metadata describing one dynamic transfer.
type DynMeta struct {
	DType       uint32
	Dims        []uint64
	Src         RemoteRegion // reconstructed with the edge's sender endpoint
	SrcOff      uint64
	PayloadSize uint64
}

// DynSlotDesc addresses a receiver-side metadata slot (for the sender) or a
// sender-side scratch block (for the receiver's ack), symmetric on purpose.
type DynSlotDesc struct {
	Region RemoteRegion
	Off    int
}

// Marshal encodes the descriptor.
func (d DynSlotDesc) Marshal() []byte {
	buf := make([]byte, 0, 8+d.Region.wireSize())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Off))
	return append(buf, d.Region.Marshal()...)
}

// UnmarshalDynSlotDesc decodes a descriptor produced by Marshal.
func UnmarshalDynSlotDesc(buf []byte) (DynSlotDesc, error) {
	var d DynSlotDesc
	if len(buf) < 8 {
		return d, fmt.Errorf("rdma: short dyn slot descriptor (%d bytes)", len(buf))
	}
	d.Off = int(binary.LittleEndian.Uint64(buf))
	region, err := UnmarshalRemoteRegion(buf[8:])
	if err != nil {
		return d, err
	}
	d.Region = region
	return d, nil
}

// DynReceiver owns a preallocated metadata slot for one dynamic edge.
type DynReceiver struct {
	mr      *MemRegion
	off     int
	sender  string // the edge's fixed sender endpoint
	ch      *Channel
	ackSrc  *MemRegion // one word containing FlagSet, source of ack writes
	laneSet            // FetchRetry's lanes
}

// NewDynReceiver claims DynMetaSize bytes at off in mr as the metadata slot
// for an edge whose sender is reached via ch.
func NewDynReceiver(ch *Channel, mr *MemRegion, off int) (*DynReceiver, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: dyn meta offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, DynMetaSize); err != nil {
		return nil, err
	}
	ackSrc, err := mr.dev.AllocateMemRegion(FlagWordSize)
	if err != nil {
		return nil, err
	}
	ackSrc.SetFlagLocal(0)
	r := &DynReceiver{mr: mr, off: off, sender: ch.Remote(), ch: ch, ackSrc: ackSrc,
		laneSet: laneSet{FixedLanes{ch}}}
	mr.ClearFlag(off + dynMetaFlagOff)
	return r, nil
}

// Desc returns the metadata slot's address for distribution to the sender.
func (r *DynReceiver) Desc() DynSlotDesc {
	return DynSlotDesc{Region: r.mr.Descriptor(), Off: r.off}
}

// Close releases the receiver's internally allocated ack-source region.
// Call when the edge is torn down (e.g. rebuilt after a peer crash) so
// repeated setup rounds do not accumulate registrations.
func (r *DynReceiver) Close() {
	r.mr.dev.FreeMemRegion(r.ackSrc)
}

// Poll checks the metadata flag; when set it decodes and returns the
// metadata (leaving the flag set until Fetch clears it).
func (r *DynReceiver) Poll() (DynMeta, bool) {
	if !r.mr.PollFlag(r.off + dynMetaFlagOff) {
		return DynMeta{}, false
	}
	m, err := DecodeDynMeta(r.mr.Bytes()[r.off:r.off+DynMetaSize], r.sender)
	if err != nil {
		// Unreachable for a full-size slot; keep Poll's signature simple.
		return DynMeta{}, false
	}
	return m, true
}

// DecodeDynMeta decodes a metadata block image (the first dynMetaFlagOff
// bytes of a slot) as written by DynSender.Send, reconstructing the source
// region with the edge's sender endpoint. It is total on arbitrary bytes:
// short input errors, an out-of-range rank is clamped, and no input panics.
func DecodeDynMeta(b []byte, sender string) (DynMeta, error) {
	if len(b) < dynMetaFlagOff {
		return DynMeta{}, fmt.Errorf("rdma: short dyn metadata block (%d bytes)", len(b))
	}
	m := DynMeta{
		DType:       binary.LittleEndian.Uint32(b),
		SrcOff:      binary.LittleEndian.Uint64(b[88:]),
		PayloadSize: binary.LittleEndian.Uint64(b[96:]),
	}
	rank := binary.LittleEndian.Uint32(b[4:])
	if rank > MaxDims {
		rank = MaxDims
	}
	m.Dims = make([]uint64, rank)
	for i := range m.Dims {
		m.Dims[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	m.Src = RemoteRegion{
		Endpoint: sender,
		RegionID: binary.LittleEndian.Uint32(b[72:]),
		Size:     binary.LittleEndian.Uint64(b[80:]),
	}
	return m, nil
}

// Fetch clears the metadata flag, pulls the payload into
// dst[dstOff:dstOff+meta.PayloadSize) with a one-sided read, and then posts
// the reuse ack into the sender's scratch block. cb fires once the ack write
// completed (or the read failed).
func (r *DynReceiver) Fetch(meta DynMeta, senderScratch DynSlotDesc, dst *MemRegion, dstOff int, cb func(error)) error {
	r.mr.ClearFlag(r.off + dynMetaFlagOff)
	r.fetch(FixedLanes{r.ch}, meta, senderScratch, dst, dstOff, TransferOpts{}).start(cb)
	return nil
}

// fetch is one Dyn fetch as an engine read: the payload chunks over lanes,
// then the reuse ack — the Dyn protocol's commit word — so the sender can
// never observe "reusable" while part of the payload is still in flight.
func (r *DynReceiver) fetch(lanes []*Channel, meta DynMeta, senderScratch DynSlotDesc,
	dst *MemRegion, dstOff int, o TransferOpts) *xfer {
	x := &xfer{
		lanes: lanes, dir: OpRead,
		local: dst, localOff: dstOff, remote: meta.Src, remoteOff: int(meta.SrcOff),
		commit: MemcpyReq{Local: r.ackSrc, Remote: senderScratch.Region,
			RemoteOff: senderScratch.Off + dynMetaAckOff, Size: FlagWordSize},
		onStripe: o.OnStripe, onDoorbell: o.OnDoorbell,
	}
	return x.cut(int(meta.PayloadSize), o.Stripes)
}

// DynSender owns the sender-side scratch block for one dynamic edge: the
// staged metadata image plus the ack word the receiver writes back.
type DynSender struct {
	ch   *Channel
	mr   *MemRegion
	off  int
	meta DynSlotDesc // receiver's metadata slot
	laneSet
	// started is atomic: the scheduler polls PollReusable from its worker
	// goroutine while Send runs on the edge's transfer goroutine.
	started atomic.Bool
}

// NewDynSender claims DynMetaSize bytes at off in mr as scratch for sends to
// the given receiver metadata slot.
func NewDynSender(ch *Channel, mr *MemRegion, off int, meta DynSlotDesc) (*DynSender, error) {
	if off%8 != 0 {
		return nil, fmt.Errorf("rdma: dyn scratch offset %d not 8-aligned: %w", off, ErrBadConfig)
	}
	if _, err := mr.Slice(off, DynMetaSize); err != nil {
		return nil, err
	}
	if meta.Region.Endpoint != ch.Remote() {
		return nil, fmt.Errorf("rdma: meta slot on %s but channel to %s: %w",
			meta.Region.Endpoint, ch.Remote(), ErrBadConfig)
	}
	s := &DynSender{ch: ch, mr: mr, off: off, meta: meta, laneSet: laneSet{FixedLanes{ch}}}
	mr.ClearFlag(off + dynMetaAckOff)
	return s, nil
}

// ScratchDesc returns the scratch block's address, which the receiver needs
// for ack writes.
func (s *DynSender) ScratchDesc() DynSlotDesc {
	return DynSlotDesc{Region: s.mr.Descriptor(), Off: s.off}
}

// PollReusable reports whether the previous transfer has been acked (or no
// transfer has happened yet), i.e. whether Send may be called.
func (s *DynSender) PollReusable() bool {
	if !s.started.Load() {
		return true
	}
	return s.mr.PollFlag(s.off + dynMetaAckOff)
}

// Send stages the metadata describing payload[payloadOff, +payloadSize) of
// payloadMR and writes it (with flag) to the receiver's metadata slot. The
// payload itself stays put — the receiver pulls it with an RDMA read.
// Returns ErrBusy if the previous transfer has not been acked yet.
func (s *DynSender) Send(payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64, cb func(error)) error {
	x, err := s.plan([]*Channel{s.ch}, payloadMR, payloadOff, payloadSize, dtype, dims)
	if err != nil {
		return err
	}
	x.start(cb)
	return nil
}

// plan stages the metadata image and returns its write as an engine
// transfer: metadata and flag (but not the ack word) in one ascending
// write, the flag as the fused commit word.
func (s *DynSender) plan(lanes []*Channel, payloadMR *MemRegion, payloadOff, payloadSize int,
	dtype uint32, dims []uint64) (*xfer, error) {
	if len(dims) > MaxDims {
		return nil, fmt.Errorf("rdma: rank %d exceeds MaxDims %d: %w", len(dims), MaxDims, ErrBadConfig)
	}
	if _, err := payloadMR.Slice(payloadOff, payloadSize); err != nil {
		return nil, err
	}
	if !s.PollReusable() {
		return nil, ErrBusy
	}
	s.started.Store(true)
	s.mr.ClearFlag(s.off + dynMetaAckOff)

	b := s.mr.Bytes()[s.off : s.off+DynMetaSize]
	binary.LittleEndian.PutUint32(b, dtype)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(dims)))
	for i := 0; i < MaxDims; i++ {
		var d uint64
		if i < len(dims) {
			d = dims[i]
		}
		binary.LittleEndian.PutUint64(b[8+8*i:], d)
	}
	binary.LittleEndian.PutUint32(b[72:], payloadMR.ID())
	binary.LittleEndian.PutUint32(b[76:], 0)
	binary.LittleEndian.PutUint64(b[80:], uint64(payloadMR.Size()))
	binary.LittleEndian.PutUint64(b[88:], uint64(payloadOff))
	binary.LittleEndian.PutUint64(b[96:], uint64(payloadSize))
	s.mr.SetFlagLocal(s.off + dynMetaFlagOff)
	return slotWrite(lanes, s.mr, s.off, s.meta.Region, s.meta.Off, dynMetaFlagOff, 1), nil
}
