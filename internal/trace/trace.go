// Package trace records driver-level events and classifies transfers as
// required or redundant while it records them.
//
// The paper defines a redundant memory transfer (RMT) as "an automatic
// memory transfer orchestrated by the UVM system that is not needed for
// correctness" — e.g. a buffer migrated and then overwritten before being
// read (§1, §3). Figure 3 is produced by exactly this classification: total
// UVM traffic vs the non-redundant portion. The classifier here implements
// it at block granularity:
//
//   - An H2D transfer is REQUIRED iff the first subsequent data-consuming
//     event for that block on the GPU is a read. If the block is instead
//     first overwritten, discarded, migrated back, or never touched again,
//     the transfer moved dead bytes.
//   - A D2H transfer is REQUIRED iff the block's data is subsequently
//     consumed: read by the CPU, or migrated back to the GPU and then read
//     there. If it is first overwritten, discarded, or never used again,
//     the swap-out was redundant.
//
// A block's events are ordered by time, equal times keeping record order.
// The recorder keeps O(1) state per block and resolves each transfer when
// the event that decides it is recorded, so reading the result (Analyze,
// Recorder.Classify) costs O(blocks) and never regroups the trace. The same
// per-block state holds the discard advisor's dead intervals
// (internal/advisor). The driver records almost every block in time order;
// a block that receives an event older than its previous one is classified
// again from the log, in time order, when the result is read.
//
// Accesses are recorded at the same block granularity the driver manages,
// with the workload declaring read-before-write vs overwrite semantics per
// access — the same application-level knowledge the discard directive
// exploits.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"uvmdiscard/internal/sim"
)

// Kind enumerates trace event types.
type Kind int

const (
	// TransferH2D is a host-to-device migration of one block.
	TransferH2D Kind = iota
	// TransferD2H is a device-to-host migration (eviction or CPU pull).
	TransferD2H
	// GPURead is a GPU access that consumes the block's existing data.
	GPURead
	// GPUWrite is a GPU access that overwrites the block without reading
	// its previous contents.
	GPUWrite
	// CPURead is a host access consuming existing data.
	CPURead
	// CPUWrite is a host overwrite.
	CPUWrite
	// TransferPeer is a GPU-to-GPU migration over the peer fabric.
	TransferPeer
	// Discard marks the block's contents dead (either discard flavor).
	Discard
	// ZeroFill records fresh zeroed memory being mapped for the block.
	ZeroFill
)

// kindNames spells every kind, indexed by its value. String and the JSON
// dump format both read it.
var kindNames = [...]string{
	TransferH2D:  "h2d",
	TransferD2H:  "d2h",
	GPURead:      "gpu-read",
	GPUWrite:     "gpu-write",
	CPURead:      "cpu-read",
	CPUWrite:     "cpu-write",
	TransferPeer: "peer",
	Discard:      "discard",
	ZeroFill:     "zero",
}

// String names the kind.
func (k Kind) String() string {
	if k.named() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

func (k Kind) named() bool { return k >= 0 && int(k) < len(kindNames) }

// Event is one trace record.
type Event struct {
	T     sim.Time
	Kind  Kind
	Alloc int // allocation ID
	Block int // block index within the allocation
	Bytes uint64
}

// wideMark is the logged kind of an event whose kind does not fit the log's
// 8-bit kind field or whose size does not fit its 32-bit size field; the
// event's kind and size are kept whole in Recorder.wide.
const wideMark = math.MaxUint8

// wideEvent is what the log cannot hold of a wide event.
type wideEvent struct {
	kind  Kind
	bytes uint64
}

// chunkLen is the number of events per log chunk. Chunks are never resized,
// so recording never copies an event. A chunk and its next pointer fill all
// but 20 bytes of 20 heap pages (160 KiB).
const chunkLen = (20<<13 - 8) / 17

// chunk is one fixed-size piece of a recorder's log. The log keeps an Event
// in 17 bytes instead of 40: its time, its size narrowed to 32 bits, the
// slot of its (alloc, block) pair in the recorder's block table, and its
// kind narrowed to 8 bits. An event that does not fit is logged with
// wideMark, so nothing is truncated. The fields are stored one array each,
// so a scan for some blocks' events reads only the slots. next comes first
// so the garbage collector scans one pointer word, not the events.
type chunk struct {
	next  *chunk
	t     [chunkLen]sim.Time
	bytes [chunkLen]uint32
	slot  [chunkLen]uint32
	kind  [chunkLen]uint8
}

// block is the recorder's state for one (alloc, block) pair.
type block struct {
	alloc, index int
	// last is the time of the block's latest event while its events
	// arrive in time order. An event with an earlier time marks the block
	// late: Classify classifies it again from the log.
	last sim.Time
	v    verdicts
	late bool
}

// pageLen is the number of blocks per page of the block table. Pages are
// never resized, so adding a block never copies one.
const pageLen = 1 << 9

// Recorder accumulates events in a chain of fixed-size chunks and
// classifies each block's transfers as it goes. A nil *Recorder is valid
// and records nothing, so the driver can be run without tracing overhead.
type Recorder struct {
	head, tail *chunk
	n          int
	// wide holds the kind and size of every wide event, by event index.
	wide map[int]wideEvent

	// pages holds block slot s at pages[s/pageLen][s%pageLen]; nblocks
	// slots are in use.
	pages   []*[pageLen]block
	nblocks int
	// dense[alloc][index] is the slot of a driver-numbered pair plus one
	// (0: none); every other pair's slot is in sparse. cells counts the
	// dense index's entries, which placeDense bounds by the block count.
	dense  [][]uint32
	cells  int
	sparse map[[2]int]uint32
	late   int // blocks marked late

	// totals holds the order-independent sums: bytes and count by
	// direction.
	totals Analysis
}

// NewRecorder returns an empty enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event and classifies it. No-op on a nil recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	s := r.slot(ev.Alloc, ev.Block)
	b := r.block(s)
	if ev.T < b.last {
		if !b.late {
			b.late = true
			r.late++
		}
	} else {
		b.last = ev.T
	}
	switch ev.Kind {
	case TransferH2D:
		r.totals.TotalH2D += ev.Bytes
		r.totals.TransferCount++
	case TransferD2H:
		r.totals.TotalD2H += ev.Bytes
		r.totals.TransferCount++
	case TransferPeer:
		r.totals.TotalPeer += ev.Bytes
		r.totals.TransferCount++
	}
	b.v.step(ev.Kind, ev.Bytes)

	kind, size := uint8(ev.Kind), uint32(ev.Bytes)
	if Kind(kind) != ev.Kind || uint64(size) != ev.Bytes || kind == wideMark {
		if r.wide == nil {
			r.wide = make(map[int]wideEvent)
		}
		r.wide[r.n] = wideEvent{ev.Kind, ev.Bytes}
		kind = wideMark
	}
	i := r.n % chunkLen
	if i == 0 {
		c := new(chunk)
		if r.tail == nil {
			r.head = c
		} else {
			r.tail.next = c
		}
		r.tail = c
	}
	c := r.tail
	c.t[i], c.bytes[i], c.slot[i], c.kind[i] = ev.T, size, s, kind
	r.n++
}

// slot returns the block-table slot of (alloc, index), adding the block on
// its first event. The driver numbers allocations from 0 and blocks from 0
// within each allocation, so its pairs index the dense table directly.
func (r *Recorder) slot(alloc, index int) uint32 {
	if uint(alloc) < uint(len(r.dense)) {
		if row := r.dense[alloc]; uint(index) < uint(len(row)) && row[index] != 0 {
			return row[index] - 1
		}
	}
	key := [2]int{alloc, index}
	if s, ok := r.sparse[key]; ok {
		return s
	}
	if uint64(r.nblocks) == math.MaxUint32 {
		panic("trace: more blocks than a slot can number")
	}
	s := uint32(r.nblocks)
	if r.nblocks%pageLen == 0 {
		r.pages = append(r.pages, new([pageLen]block))
	}
	r.nblocks++
	*r.block(s) = block{alloc: alloc, index: index, last: math.MinInt64}
	if !r.placeDense(alloc, index, s+1) {
		if r.sparse == nil {
			r.sparse = make(map[[2]int]uint32)
		}
		r.sparse[key] = s
	}
	return s
}

// block returns slot s's state.
func (r *Recorder) block(s uint32) *block { return &r.pages[s/pageLen][s%pageLen] }

// placeDense stores v at dense[alloc][index] and reports true if the dense
// index holds that pair or can grow to hold it within its budget. The
// budget bounds the index's cells by the number of blocks, so that no ID,
// however large, makes it allocate in proportion to its value.
func (r *Recorder) placeDense(alloc, index int, v uint32) bool {
	budget := 4*r.nblocks + 1024
	if alloc < 0 || index < 0 || alloc >= budget || index >= budget {
		return false
	}
	var ok bool
	if r.dense, ok = grow(r, r.dense, alloc, budget); !ok {
		return false
	}
	row, ok := grow(r, r.dense[alloc], index, budget)
	if !ok {
		return false
	}
	r.dense[alloc] = row
	row[index] = v
	return true
}

// grow returns s, doubled if need be to hold index i, and reports false if
// that would take the dense index's cells past budget.
func grow[T any](r *Recorder, s []T, i, budget int) ([]T, bool) {
	if i < len(s) {
		return s, true
	}
	n := max(i+1, 2*len(s))
	if r.cells+n-len(s) > budget {
		return s, false
	}
	r.cells += n - len(s)
	return append(s, make([]T, n-len(s))...), true
}

// Events returns a copy of the recorded events in record order, exactly as
// recorded. The copy is as large as the trace; Classify and WriteJSON read
// the recorder's own storage instead.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.n)
	for c := r.head; len(out) < r.n; c = c.next {
		for k := 0; k < chunkLen && len(out) < r.n; k++ {
			out = append(out, r.event(c, k, len(out)))
		}
	}
	return out
}

// event expands entry k of chunk c, the log's i'th event, back into the
// Event recorded.
func (r *Recorder) event(c *chunk, k, i int) Event {
	b := r.block(c.slot[k])
	kind, size := r.kindSize(c, k, i)
	return Event{T: c.t[k], Kind: kind, Alloc: b.alloc, Block: b.index, Bytes: size}
}

// kindSize returns the kind and size of entry k of chunk c, the log's i'th
// event.
func (r *Recorder) kindSize(c *chunk, k, i int) (Kind, uint64) {
	if c.kind[k] == wideMark {
		w := r.wide[i]
		return w.kind, w.bytes
	}
	return Kind(c.kind[k]), uint64(c.bytes[k])
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Reset discards all recorded events and releases their storage.
func (r *Recorder) Reset() {
	if r != nil {
		*r = Recorder{}
	}
}

// verdicts is one block's classification state, advanced one event at a
// time in the block's time order by step. It holds the transfers that no
// later event has decided yet, what has been decided redundant, and the
// discard advisor's dead intervals.
type verdicts struct {
	// h2d and peer are the bytes of the H2D and peer transfers whose data
	// has been neither read nor killed on the GPU, toGPU their count.
	h2d, peer uint64
	toGPU     int
	// d2h is the bytes of the D2H transfers whose data has been neither
	// consumed nor killed, toHost their count; back says that data has
	// since moved to the GPU again.
	d2h    uint64
	toHost int
	back   bool
	// Decided redundant, by direction, and how many transfers.
	redH2D, redD2H, redPeer uint64
	redundant               int
	// The advisor's dead intervals: transfer bytes since the last read,
	// the bytes and count of closed intervals, and whether a discard was
	// seen.
	dead, wasted uint64
	intervals    int
	discarded    bool
}

// step advances v past one event. It is DESIGN.md §15's table read in time
// order: each pending transfer is decided by the first later event that
// decides it.
//
//   - H2D and peer transfers are required if the block's next GPURead comes
//     before its next GPUWrite, D2H, Discard or ZeroFill.
//   - D2H transfers are required if their data is consumed before it dies:
//     while it is on the host, a CPURead consumes it, a CPUWrite kills it,
//     and an H2D moves it to the GPU; once it is back on the GPU, a GPURead
//     consumes it, a GPUWrite kills it, and a D2H moves it to the host
//     again, where it joins the new D2H's pending data. A Discard or
//     ZeroFill kills it either way.
//   - A dead interval runs from the block's last read to the write,
//     Discard or ZeroFill that proves no further read was coming; the H2D
//     and D2H bytes inside it were wasted.
//
// Whatever is still pending when the trace ends is decided by end.
// Unknown kinds change nothing.
func (v *verdicts) step(k Kind, n uint64) {
	switch k {
	case TransferH2D:
		v.back = true
		v.h2d += n
		v.toGPU++
		v.dead += n
	case TransferPeer:
		v.peer += n
		v.toGPU++
	case TransferD2H:
		v.killGPU()
		v.back = false
		v.d2h += n
		v.toHost++
		v.dead += n
	case GPURead:
		v.useGPU()
		if v.back {
			v.useHost()
		}
		v.dead = 0
	case GPUWrite:
		v.killGPU()
		if v.back {
			v.killHost()
		}
		v.closeDead()
	case CPURead:
		if !v.back {
			v.useHost()
		}
		v.dead = 0
	case CPUWrite:
		if !v.back {
			v.killHost()
		}
		v.closeDead()
	case Discard, ZeroFill:
		v.killGPU()
		v.killHost()
		v.discarded = v.discarded || k == Discard
		v.closeDead()
	}
}

// end decides what is still pending when the trace ends: data never used
// again was not required, and its transfers moved dead bytes.
func (v *verdicts) end() {
	v.killGPU()
	v.killHost()
	v.closeDead()
}

// useGPU decides the pending H2D and peer transfers required.
func (v *verdicts) useGPU() { v.h2d, v.peer, v.toGPU = 0, 0, 0 }

// killGPU decides the pending H2D and peer transfers redundant.
func (v *verdicts) killGPU() {
	v.redH2D += v.h2d
	v.redPeer += v.peer
	v.redundant += v.toGPU
	v.useGPU()
}

// useHost decides the pending D2H transfers required.
func (v *verdicts) useHost() { v.d2h, v.toHost = 0, 0 }

// killHost decides the pending D2H transfers redundant.
func (v *verdicts) killHost() {
	v.redD2H += v.d2h
	v.redundant += v.toHost
	v.useHost()
}

// closeDead ends the current dead interval, if it moved any bytes.
func (v *verdicts) closeDead() {
	if v.dead > 0 {
		v.wasted += v.dead
		v.intervals++
	}
	v.dead = 0
}

// AllocWaste is the discard advisor's summary of one allocation's dead
// intervals (internal/advisor ranks them).
type AllocWaste struct {
	Alloc int
	// Blocks counts the allocation's blocks with at least one dead
	// interval, and Intervals the dead intervals across them.
	Blocks, Intervals int
	// Wasted is the transfer volume inside the dead intervals.
	Wasted uint64
	// Discarded reports whether any block of the allocation was discarded.
	Discarded bool
}

// Classify returns the RMT analysis of everything recorded, and the dead
// intervals of every allocation that has some, in the order the
// allocations' first events were recorded. It reads the per-block state in
// O(blocks), plus one scan of the log when some block was recorded out of
// time order, and changes nothing. A nil recorder yields a zero analysis.
func (r *Recorder) Classify() (Analysis, []AllocWaste) {
	if r == nil {
		return Analysis{}, nil
	}
	a := r.totals
	again := r.reclassify()
	var allocs []AllocWaste
	at := make(map[int]int)
	cur := -1
	for s := uint32(0); s < uint32(r.nblocks); s++ {
		b := r.block(s)
		v := b.v
		if b.late {
			v = again[s]
		}
		v.end()
		a.RedundantH2D += v.redH2D
		a.RedundantD2H += v.redD2H
		a.RedundantPeer += v.redPeer
		a.RedundantCount += v.redundant

		if cur < 0 || allocs[cur].Alloc != b.alloc {
			i, ok := at[b.alloc]
			if !ok {
				i = len(allocs)
				at[b.alloc] = i
				allocs = append(allocs, AllocWaste{Alloc: b.alloc})
			}
			cur = i
		}
		w := &allocs[cur]
		w.Discarded = w.Discarded || v.discarded
		if v.wasted > 0 {
			w.Blocks++
			w.Intervals += v.intervals
			w.Wasted += v.wasted
		}
	}
	a.RequiredBytes = a.Total() - a.Redundant()
	return a, slices.DeleteFunc(allocs, func(w AllocWaste) bool { return w.Wasted == 0 })
}

// reclassify classifies every late block again with step, over its events
// from the log stably sorted by time, and returns the verdicts by slot
// (before end).
func (r *Recorder) reclassify() map[uint32]verdicts {
	if r.late == 0 {
		return nil
	}
	late := make([]bool, r.nblocks) // small enough to stay in cache
	for s := range late {
		late[s] = r.block(uint32(s)).late
	}
	type event struct {
		slot  uint32
		t     sim.Time
		kind  Kind
		bytes uint64
	}
	var evs []event
	for c, i := r.head, 0; i < r.n; c, i = c.next, i+chunkLen {
		for k, s := range c.slot[:min(r.n-i, chunkLen)] {
			if late[s] {
				kind, size := r.kindSize(c, k, i+k)
				evs = append(evs, event{s, c.t[k], kind, size})
			}
		}
	}
	slices.SortStableFunc(evs, func(x, y event) int {
		return cmp.Or(cmp.Compare(x.slot, y.slot), cmp.Compare(x.t, y.t))
	})
	out := make(map[uint32]verdicts, r.late)
	for i := 0; i < len(evs); {
		s := evs[i].slot
		var v verdicts
		for ; i < len(evs) && evs[i].slot == s; i++ {
			v.step(evs[i].kind, evs[i].bytes)
		}
		out[s] = v
	}
	return out
}

// Analysis is the result of RMT classification over a trace.
type Analysis struct {
	// TotalH2D / TotalD2H are total transferred bytes by direction;
	// TotalPeer covers GPU-to-GPU migrations.
	TotalH2D, TotalD2H, TotalPeer uint64
	// RedundantH2D / RedundantD2H / RedundantPeer are the redundant
	// portions.
	RedundantH2D, RedundantD2H, RedundantPeer uint64
	// RequiredBytes is total minus redundant, both directions.
	RequiredBytes uint64
	// TransferCount / RedundantCount count per-block transfer events.
	TransferCount, RedundantCount int
}

// Total returns all transferred bytes.
func (a Analysis) Total() uint64 { return a.TotalH2D + a.TotalD2H + a.TotalPeer }

// Redundant returns all redundant bytes.
func (a Analysis) Redundant() uint64 {
	return a.RedundantH2D + a.RedundantD2H + a.RedundantPeer
}

// RedundantFraction returns redundant/total, or 0 for an empty trace.
func (a Analysis) RedundantFraction() float64 {
	if a.Total() == 0 {
		return 0
	}
	return float64(a.Redundant()) / float64(a.Total())
}

// String summarizes the analysis.
func (a Analysis) String() string {
	return fmt.Sprintf("transfers %d (%d redundant, %.1f%%); bytes total %d, redundant %d, required %d",
		a.TransferCount, a.RedundantCount, 100*a.RedundantFraction(),
		a.Total(), a.Redundant(), a.RequiredBytes)
}

// Analyze classifies every transfer in the trace: the analysis half of
// Classify.
func Analyze(r *Recorder) Analysis {
	a, _ := r.Classify()
	return a
}
