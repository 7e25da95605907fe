// Package trace records driver-level events and classifies transfers as
// required or redundant after the fact.
//
// The paper defines a redundant memory transfer (RMT) as "an automatic
// memory transfer orchestrated by the UVM system that is not needed for
// correctness" — e.g. a buffer migrated and then overwritten before being
// read (§1, §3). Figure 3 is produced by exactly this classification: total
// UVM traffic vs the non-redundant portion. The analyzer here implements
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

// chunkLen is the number of events per storage chunk. Chunks are never
// resized, so recording never copies an event. One event short of 4 096,
// a chunk and its next pointer fill exactly 20 pages (160 KiB) of heap.
const chunkLen = 1<<12 - 1

// chunk is one fixed-size piece of a recorder's storage. next comes first
// so the garbage collector scans one pointer word, not the events.
type chunk struct {
	next   *chunk
	events [chunkLen]Event
}

// Recorder accumulates events in a chain of fixed-size chunks. A nil
// *Recorder is valid and records nothing, so the driver can be run without
// tracing overhead.
type Recorder struct {
	head, tail *chunk
	n          int
}

// NewRecorder returns an empty enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event. No-op on a nil recorder.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
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
	r.tail.events[i] = ev
	r.n++
}

// Events returns a copy of the recorded events in record order. The copy
// is as large as the trace; Analyze and WriteJSON read the recorder's own
// storage instead.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.n)
	for _, c := range r.chunks() {
		out = append(out, c...)
	}
	return out
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

// chunks returns the recorded part of every chunk in record order, so event
// i is chunks[i/chunkLen][i%chunkLen]. r must not be nil.
func (r *Recorder) chunks() [][]Event {
	out := make([][]Event, 0, (r.n+chunkLen-1)/chunkLen)
	for c, left := r.head, r.n; left > 0; c, left = c.next, left-chunkLen {
		out = append(out, c.events[:min(left, chunkLen)])
	}
	return out
}

// ForEachBlock calls fn once for every (alloc, block) pair in the trace, in
// ascending (alloc, block) order, with that block's events ordered by time.
// Events recorded at equal times keep their record order (the driver
// records in issue order). evs is reused by the next call. No-op on a nil
// recorder.
func (r *Recorder) ForEachBlock(fn func(alloc, block int, evs []Event)) {
	if r.Len() == 0 {
		return
	}
	chunks := r.chunks()
	var evs []Event
	flush := func() {
		// The driver records nearly in time order (ResNet-53 at batch 150
		// has out-of-order events in 45 of its 13 842 blocks), so almost
		// every block skips the sort.
		if !slices.IsSortedFunc(evs, byTime) {
			slices.SortStableFunc(evs, byTime)
		}
		fn(evs[0].Alloc, evs[0].Block, evs)
		evs = evs[:0]
	}
	for _, i := range groupOrder(chunks, r.n) {
		ev := chunks[i/chunkLen][i%chunkLen]
		if len(evs) > 0 && (ev.Alloc != evs[0].Alloc || ev.Block != evs[0].Block) {
			flush()
		}
		evs = append(evs, ev)
	}
	flush()
}

func byTime(a, b Event) int { return cmp.Compare(a.T, b.T) }

// groupOrder returns the indexes of the n events in chunks ordered by
// (alloc, block), in record order within each pair.
//
// Driver traces number allocations from 0 and blocks from 0 within each
// allocation, so a counting sort over a dense block number orders them in
// O(n) without hashing any key. IDs that do not pack into at most 2n slots,
// such as sparse or huge ones a caller or a JSON dump may supply, take a
// comparison sort instead. Either way memory stays O(n).
func groupOrder(chunks [][]Event, n int) []int {
	order := make([]int, n)
	d, ok := packBlocks(chunks, n)
	if !ok {
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int {
			a, b := &chunks[i/chunkLen][i%chunkLen], &chunks[j/chunkLen][j%chunkLen]
			return cmp.Or(cmp.Compare(a.Alloc, b.Alloc), cmp.Compare(a.Block, b.Block), cmp.Compare(i, j))
		})
		return order
	}
	next := make([]int, d.slots+1) // next[s]: where slot s's next index goes
	for _, c := range chunks {
		for k := range c {
			next[d.slot(&c[k])+1]++
		}
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	i := 0
	for _, c := range chunks {
		for k := range c {
			s := d.slot(&c[k])
			order[next[s]] = i
			next[s]++
			i++
		}
	}
	return order
}

// denseBlocks numbers every (alloc, block) pair of a trace densely: the
// blocks of allocation minAlloc+a occupy slots base[a] onward, starting
// with block first[a].
type denseBlocks struct {
	minAlloc    int
	first, base []int
	slots       int
}

// slot returns ev's dense block number. packBlocks checked that both
// differences are below 2n, so neither overflows.
func (d *denseBlocks) slot(ev *Event) int {
	a := ev.Alloc - d.minAlloc
	return d.base[a] + (ev.Block - d.first[a])
}

// packBlocks builds the dense numbering for the n events in chunks, or
// reports false when the allocation IDs span n or more values or the
// blocks need more than 2n slots in total.
func packBlocks(chunks [][]Event, n int) (denseBlocks, bool) {
	lo, hi := chunks[0][0].Alloc, chunks[0][0].Alloc
	for _, c := range chunks {
		for k := range c {
			lo, hi = min(lo, c[k].Alloc), max(hi, c[k].Alloc)
		}
	}
	// Differences go through uint64 so that extreme IDs cannot overflow.
	if uint64(hi)-uint64(lo) >= uint64(n) {
		return denseBlocks{}, false
	}
	na := hi - lo + 1
	first, last := make([]int, na), make([]int, na)
	for a := range first {
		first[a], last[a] = math.MaxInt, math.MinInt // no blocks yet
	}
	for _, c := range chunks {
		for k := range c {
			a := c[k].Alloc - lo
			first[a], last[a] = min(first[a], c[k].Block), max(last[a], c[k].Block)
		}
	}
	d := denseBlocks{minAlloc: lo, first: first, base: make([]int, na)}
	limit := 2 * uint64(n)
	for a := range first {
		d.base[a] = d.slots
		if first[a] > last[a] {
			continue
		}
		span := uint64(last[a]) - uint64(first[a])
		if span >= limit || uint64(d.slots)+span+1 > limit {
			return denseBlocks{}, false
		}
		d.slots += int(span) + 1
	}
	return d, true
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

// Analyze classifies every transfer in the trace. Events recorded at equal
// times keep their record order (the driver records in issue order).
func Analyze(r *Recorder) Analysis {
	var a Analysis
	r.ForEachBlock(func(_, _ int, evs []Event) { a.classify(evs) })
	a.RequiredBytes = a.Total() - a.Redundant()
	return a
}

// classify adds one block's time-ordered events to a in a single reverse
// pass. Walking backwards, it carries the verdict a transfer at the current
// position would get from the events after it:
//
//   - gpu: an H2D or peer transfer is required iff, of the next GPURead,
//     GPUWrite, Discard, ZeroFill or D2H, the first is a GPURead;
//   - onHost, onGPU: a D2H transfer is required iff the data is consumed
//     before it dies. onHost is the verdict while the data is still on the
//     host (a CPURead consumes it, a CPUWrite kills it, an H2D moves it);
//     onGPU is the verdict once it has moved back (a GPURead consumes it, a
//     GPUWrite kills it, a D2H returns it to the host). Discard and
//     ZeroFill kill it either way.
//
// Every verdict starts false: data never touched again was not required.
func (a *Analysis) classify(evs []Event) {
	var gpu, onHost, onGPU bool
	for i := len(evs) - 1; i >= 0; i-- {
		ev := &evs[i]
		switch ev.Kind {
		case TransferH2D:
			a.TotalH2D += ev.Bytes
			a.TransferCount++
			if !gpu {
				a.RedundantH2D += ev.Bytes
				a.RedundantCount++
			}
			onHost = onGPU
		case TransferPeer:
			a.TotalPeer += ev.Bytes
			a.TransferCount++
			if !gpu {
				a.RedundantPeer += ev.Bytes
				a.RedundantCount++
			}
		case TransferD2H:
			a.TotalD2H += ev.Bytes
			a.TransferCount++
			if !onHost {
				a.RedundantD2H += ev.Bytes
				a.RedundantCount++
			}
			gpu, onGPU = false, onHost
		case GPURead:
			gpu, onGPU = true, true
		case GPUWrite:
			gpu, onGPU = false, false
		case CPURead:
			onHost = true
		case CPUWrite:
			onHost = false
		case Discard, ZeroFill:
			gpu, onHost, onGPU = false, false, false
		}
	}
}
