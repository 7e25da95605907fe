package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// Snapshot is the complete serialized state of a live simulation at a step
// boundary. Everything that can influence a later step of the run is here;
// see the package comment for what is deliberately excluded.
type Snapshot struct {
	// Digest identifies the workload configuration the snapshot belongs to
	// (workload, config sizes, system, platform). Restore into a run with a
	// different digest is refused — resuming FIR state into a different
	// window size would be silently wrong, the exact failure mode this
	// subsystem exists to prevent.
	Digest string `json:"digest"`
	// Step is the next step index the resumed run should execute.
	Step int `json:"step"`
	// Start is the measurement-start timestamp (runtime excludes input
	// pre-processing; the resumed run must subtract the same origin).
	Start sim.Time `json:"start"`

	Clock    sim.Time      `json:"clock"`
	RNG      uint64        `json:"rng"`
	DMA      EngineState   `json:"dma"`
	Peer     EngineState   `json:"peer"`
	Computes []EngineState `json:"computes"`
	Streams  []StreamState `json:"streams"`

	Allocs  []AllocState  `json:"allocs"`
	Devices []DeviceState `json:"devices"`

	HostResident units.Size `json:"host_resident"`
	HostPinned   units.Size `json:"host_pinned"`

	DeviceAllocBytes units.Size `json:"device_alloc_bytes"`
	DeviceChunkCount int        `json:"device_chunk_count"`

	Counters metrics.CounterState `json:"counters"`
}

// EngineState is one sim.Engine's timeline position.
type EngineState struct {
	FreeAt sim.Time `json:"free_at"`
	Busy   sim.Time `json:"busy"`
	Ops    int64    `json:"ops"`
}

// StreamState is one CUDA stream's identity and tail position.
type StreamState struct {
	Name string   `json:"name"`
	Tail sim.Time `json:"tail"`
}

// AllocState is one managed allocation, recorded in allocation (= id) order
// so restore can replay the deterministic VA-space layout and verify it
// reproduces the same ids and bases.
type AllocState struct {
	ID     int          `json:"id"`
	Name   string       `json:"name"`
	Base   uint64       `json:"base"`
	Size   units.Size   `json:"size"`
	Blocks []BlockState `json:"blocks"`
}

// BlockState mirrors every vaspace.Block field that carries simulation
// state. Chunk is the owning GPU chunk's id, or -1 when the block holds no
// chunk.
type BlockState struct {
	Residency   int   `json:"res"`
	Chunk       int32 `json:"chunk"`
	GPU         int   `json:"gpu,omitempty"`
	CPUHasPages bool  `json:"cpu_pages,omitempty"`
	CPUPinned   bool  `json:"cpu_pinned,omitempty"`
	CPUStale    bool  `json:"cpu_stale,omitempty"`
	GPUMapped   bool  `json:"gpu_mapped,omitempty"`
	CPUMapped   bool  `json:"cpu_mapped,omitempty"`
	Discarded   bool  `json:"discarded,omitempty"`
	LazyDiscard bool  `json:"lazy,omitempty"`
	Preferred   int   `json:"preferred,omitempty"`
	ReadMostly  bool  `json:"read_mostly,omitempty"`
	Degraded    bool  `json:"degraded,omitempty"`
	RemoteAccs  int   `json:"remote_accs,omitempty"`
	LivePages   int   `json:"live_pages,omitempty"`
}

// DeviceState records one GPU's physical-chunk queues in exact list order
// (head first) — FIFO and LRU positions are simulation state — plus the
// per-chunk fields that survive across steps. Chunks absent from every
// queue are the detached cudaMalloc'd device buffers.
type DeviceState struct {
	Free      []int32      `json:"free,omitempty"`
	Unused    []int32      `json:"unused,omitempty"`
	Used      []int32      `json:"used,omitempty"`
	Discarded []int32      `json:"discarded,omitempty"`
	Reserved  []int32      `json:"reserved,omitempty"`
	Poisoned  []int32      `json:"poisoned,omitempty"`
	Chunks    []ChunkState `json:"chunks,omitempty"`
}

// ChunkState is the non-default per-chunk state for one chunk id; chunks
// not listed have all-zero per-use fields.
type ChunkState struct {
	ID            int32 `json:"id"`
	PreparedPages int   `json:"prepared,omitempty"`
	NeedsUnmap    bool  `json:"needs_unmap,omitempty"`
	DeviceBuffer  bool  `json:"device_buffer,omitempty"`
}

// Digest hashes a set of configuration values into a short hex string for
// Snapshot.Digest. Deterministic across processes; any value change yields
// a different digest.
func Digest(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%v", p)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// EncodeSnapshot marshals a snapshot and wraps it in the envelope.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return Encode(payload)
}

// DecodeSnapshot validates an envelope and unmarshals its snapshot.
func DecodeSnapshot(blob []byte) (*Snapshot, error) {
	payload, err := Decode(blob)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &s, nil
}

// Capture snapshots a live context at a step boundary. The context must be
// quiescent in the driver sense: between public driver operations, which is
// where workload step boundaries sit. It refuses configurations whose
// unserialized state would make the resumed run diverge: fault injection
// (injector schedule position), tracing (recorder contents), allocations
// with materialized backing data, and VA spaces with freed allocations
// (the deterministic id/base replay needs an append-only history).
func Capture(ctx *cuda.Context, digest string, step int, start sim.Time) (*Snapshot, error) {
	drv := ctx.Driver()
	if drv.HasFaultInjection() {
		return nil, fmt.Errorf("checkpoint: capture with fault injection attached: injector state is not serializable")
	}
	if drv.Trace() != nil {
		return nil, fmt.Errorf("checkpoint: capture with tracing attached: recorder state is not serializable")
	}
	if step < 0 {
		return nil, fmt.Errorf("checkpoint: capture at negative step %d", step)
	}
	s := &Snapshot{
		Digest: digest,
		Step:   step,
		Start:  start,
		Clock:  ctx.Clock().Now(),
		RNG:    ctx.RNGState(),
		DMA:    engineState(drv.EngineDMA()),
		Peer:   engineState(drv.EnginePeer()),

		HostResident: drv.Host().Resident(),
		HostPinned:   drv.Host().Pinned(),

		DeviceAllocBytes: drv.DeviceAllocBytes(),
		DeviceChunkCount: int(drv.DeviceAllocBytes() / units.BlockSize),

		Counters: drv.Metrics().State(),
	}
	for i := 0; i < ctx.NumGPUs(); i++ {
		s.Computes = append(s.Computes, engineState(ctx.ComputeAt(i)))
	}
	for _, st := range ctx.Streams() {
		s.Streams = append(s.Streams, StreamState{Name: st.Name(), Tail: st.Tail()})
	}

	// Allocations, validated replayable: the restore path re-allocates in
	// recorded order and requires identical ids and bases, which holds iff
	// the capture-time space is an append-only history (no frees).
	wantID, wantVA := 0, uint64(units.BlockSize)
	for _, a := range drv.Space().Live() {
		if a.ID() != wantID || a.Base() != wantVA {
			return nil, fmt.Errorf("checkpoint: VA space is not replayable (alloc %q id %d base %#x, expected id %d base %#x — freed allocations?)",
				a.Name(), a.ID(), a.Base(), wantID, wantVA)
		}
		if a.HasData() {
			return nil, fmt.Errorf("checkpoint: alloc %q carries functional backing data, which is not serialized", a.Name())
		}
		wantID++
		wantVA += uint64(units.AlignUp(a.Size(), units.BlockSize))
		as := AllocState{ID: a.ID(), Name: a.Name(), Base: a.Base(), Size: a.Size()}
		for i := 0; i < a.NumBlocks(); i++ {
			b := a.Block(i)
			bs := BlockState{
				Residency:   int(b.Residency),
				Chunk:       -1,
				GPU:         int(b.GPUIndex),
				CPUHasPages: b.CPUHasPages,
				CPUPinned:   b.CPUPinned,
				CPUStale:    b.CPUStale,
				GPUMapped:   b.GPUMapped,
				CPUMapped:   b.CPUMapped,
				Discarded:   b.Discarded,
				LazyDiscard: b.LazyDiscard,
				Preferred:   int(b.Preferred),
				ReadMostly:  b.ReadMostly,
				Degraded:    b.Degraded,
				RemoteAccs:  int(b.RemoteAccesses),
				LivePages:   int(b.LivePages),
			}
			if id, ok := b.Chunk(); ok {
				bs.Chunk = int32(id)
			}
			as.Blocks = append(as.Blocks, bs)
		}
		s.Allocs = append(s.Allocs, as)
	}

	for gpu := 0; gpu < drv.NumGPUs(); gpu++ {
		dev := drv.DeviceAt(gpu)
		ds := DeviceState{
			Free:      dev.AppendQueueIDs(nil, gpudev.QueueFree),
			Unused:    dev.AppendQueueIDs(nil, gpudev.QueueUnused),
			Used:      dev.AppendQueueIDs(nil, gpudev.QueueUsed),
			Discarded: dev.AppendQueueIDs(nil, gpudev.QueueDiscarded),
			Reserved:  dev.AppendQueueIDs(nil, gpudev.QueueReserved),
			Poisoned:  dev.AppendQueueIDs(nil, gpudev.QueuePoisoned),
		}
		dev.EachChunk(func(c *gpudev.Chunk) bool {
			if c.PreparedPages != 0 || c.NeedsUnmapOnReclaim || c.DeviceBuffer {
				ds.Chunks = append(ds.Chunks, ChunkState{
					ID:            int32(c.ID()),
					PreparedPages: int(c.PreparedPages),
					NeedsUnmap:    c.NeedsUnmapOnReclaim,
					DeviceBuffer:  c.DeviceBuffer,
				})
			}
			return true
		})
		s.Devices = append(s.Devices, ds)
	}
	s.DeviceChunkCount = int(s.DeviceAllocBytes / units.BlockSize)
	return s, nil
}

func engineState(e *sim.Engine) EngineState {
	return EngineState{FreeAt: e.FreeAt(), Busy: e.Busy(), Ops: e.Ops()}
}

// Restored hands the workload back its reconstituted handles, keyed by the
// names it created them with.
type Restored struct {
	Bufs    map[string]*cuda.Buffer
	Streams map[string]*cuda.Stream
}

// Restore reconstitutes a snapshot into a freshly built context (same
// platform configuration the snapshot was captured under — callers compare
// Snapshot.Digest first). On success the context's driver state, engines,
// streams, RNG, and counters are exactly the capture-time state and a full
// sanitizer audit has passed; the workload resumes at Snapshot.Step. On any
// error the context must be discarded — state may be partially applied —
// and the caller restarts from zero with a fresh context. Restore never
// panics on corrupt input: every id and enum is validated before use, and
// any residual invariant violation is caught by the final audit.
func Restore(ctx *cuda.Context, s *Snapshot) (out *Restored, err error) {
	// Belt and braces under fuzzing: validation below should make the
	// driver's internal panic paths unreachable, but a corrupt snapshot
	// must never crash the process, so convert any escape into an error.
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("checkpoint: restore panicked on corrupt snapshot: %v", r)
		}
	}()
	drv := ctx.Driver()
	if drv.HasFaultInjection() || drv.Trace() != nil {
		return nil, fmt.Errorf("checkpoint: restore into a context with fault injection or tracing attached")
	}
	if len(drv.Space().Live()) != 0 || len(ctx.Streams()) != 0 {
		return nil, fmt.Errorf("checkpoint: restore requires a fresh context")
	}
	if s.Step < 0 || s.Clock < 0 || s.Start < 0 {
		return nil, fmt.Errorf("checkpoint: negative step/clock/start (%d/%v/%v)", s.Step, s.Clock, s.Start)
	}
	if len(s.Computes) != ctx.NumGPUs() || len(s.Devices) != drv.NumGPUs() {
		return nil, fmt.Errorf("checkpoint: snapshot has %d computes / %d devices, context has %d GPUs",
			len(s.Computes), len(s.Devices), ctx.NumGPUs())
	}

	// Replay the allocations and verify the deterministic layout reproduced.
	out = &Restored{Bufs: map[string]*cuda.Buffer{}, Streams: map[string]*cuda.Stream{}}
	for _, as := range s.Allocs {
		a, aerr := drv.AllocManaged(as.Name, as.Size)
		if aerr != nil {
			return nil, fmt.Errorf("checkpoint: replaying alloc %q: %w", as.Name, aerr)
		}
		if a.ID() != as.ID || a.Base() != as.Base {
			return nil, fmt.Errorf("checkpoint: alloc %q replayed to id %d base %#x, snapshot says id %d base %#x",
				as.Name, a.ID(), a.Base(), as.ID, as.Base)
		}
		if a.NumBlocks() != len(as.Blocks) {
			return nil, fmt.Errorf("checkpoint: alloc %q has %d blocks, snapshot carries %d",
				as.Name, a.NumBlocks(), len(as.Blocks))
		}
		if _, dup := out.Bufs[as.Name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate alloc name %q", as.Name)
		}
		out.Bufs[as.Name] = ctx.RestoreBuffer(a)
	}

	// Relink every device's queues, then reapply per-chunk fields.
	for gpu := 0; gpu < drv.NumGPUs(); gpu++ {
		dev := drv.DeviceAt(gpu)
		ds := &s.Devices[gpu]
		if qerr := dev.RestoreQueues(ds.Free, ds.Unused, ds.Used, ds.Discarded, ds.Reserved, ds.Poisoned); qerr != nil {
			return nil, fmt.Errorf("checkpoint: GPU %d: %w", gpu, qerr)
		}
		pagesPerChunk := int(units.BlockSize / units.PageSize)
		for _, cs := range ds.Chunks {
			c, cerr := dev.ChunkByID(cs.ID)
			if cerr != nil {
				return nil, fmt.Errorf("checkpoint: GPU %d: %w", gpu, cerr)
			}
			if cs.PreparedPages < 0 || cs.PreparedPages > pagesPerChunk {
				return nil, fmt.Errorf("checkpoint: GPU %d chunk %d prepared pages %d outside [0,%d]",
					gpu, cs.ID, cs.PreparedPages, pagesPerChunk)
			}
			c.PreparedPages = uint16(cs.PreparedPages)
			c.NeedsUnmapOnReclaim = cs.NeedsUnmap
			c.DeviceBuffer = cs.DeviceBuffer
		}
	}

	// Reapply block state and wire the chunk↔block back-references. Every
	// value is checked to fit its block field before it is narrowed into it.
	for _, as := range s.Allocs {
		a := drv.Space().ByID(as.ID)
		for i := range as.Blocks {
			bs := &as.Blocks[i]
			if bs.Residency < int(vaspace.Untouched) || bs.Residency > int(vaspace.GPUResident) {
				return nil, fmt.Errorf("checkpoint: %q block %d residency %d out of range", as.Name, i, bs.Residency)
			}
			if bs.Preferred < int(vaspace.PreferNone) || bs.Preferred > int(vaspace.PreferGPU) {
				return nil, fmt.Errorf("checkpoint: %q block %d preference %d out of range", as.Name, i, bs.Preferred)
			}
			if bs.GPU < 0 || bs.GPU >= drv.NumGPUs() {
				return nil, fmt.Errorf("checkpoint: %q block %d claims GPU %d of %d", as.Name, i, bs.GPU, drv.NumGPUs())
			}
			if bs.RemoteAccs < 0 || bs.RemoteAccs > math.MaxInt32 {
				return nil, fmt.Errorf("checkpoint: %q block %d remote accesses %d out of range", as.Name, i, bs.RemoteAccs)
			}
			if bs.LivePages < 0 || bs.LivePages > units.PagesPerBlock {
				return nil, fmt.Errorf("checkpoint: %q block %d live pages %d outside [0,%d]", as.Name, i, bs.LivePages, units.PagesPerBlock)
			}
			b := a.Block(i)
			b.Residency = vaspace.Residency(bs.Residency)
			b.GPUIndex = int32(bs.GPU)
			b.CPUHasPages = bs.CPUHasPages
			b.CPUPinned = bs.CPUPinned
			b.CPUStale = bs.CPUStale
			b.GPUMapped = bs.GPUMapped
			b.CPUMapped = bs.CPUMapped
			b.Discarded = bs.Discarded
			b.LazyDiscard = bs.LazyDiscard
			b.Preferred = vaspace.Preference(bs.Preferred)
			b.ReadMostly = bs.ReadMostly
			b.Degraded = bs.Degraded
			b.RemoteAccesses = int32(bs.RemoteAccs)
			b.LivePages = int16(bs.LivePages)
			if bs.Chunk >= 0 {
				c, cerr := drv.DeviceAt(bs.GPU).ChunkByID(bs.Chunk)
				if cerr != nil {
					return nil, fmt.Errorf("checkpoint: %q block %d: %w", as.Name, i, cerr)
				}
				if c.Owner != 0 {
					return nil, fmt.Errorf("checkpoint: GPU %d chunk %d claimed by two blocks", bs.GPU, bs.Chunk)
				}
				b.SetChunk(bs.GPU, int(bs.Chunk))
				c.Owner = core.OwnerHandle(b)
			}
		}
	}

	// Accounting: host DRAM, device buffers, metrics, timelines.
	if herr := drv.Host().Restore(s.HostResident, s.HostPinned); herr != nil {
		return nil, herr
	}
	if derr := drv.RestoreDeviceAlloc(s.DeviceAllocBytes, s.DeviceChunkCount); derr != nil {
		return nil, derr
	}
	m := drv.Metrics()
	m.Reset()
	m.AddState(s.Counters)
	if eerr := drv.EngineDMA().Restore(s.DMA.FreeAt, s.DMA.Busy, s.DMA.Ops); eerr != nil {
		return nil, eerr
	}
	if eerr := drv.EnginePeer().Restore(s.Peer.FreeAt, s.Peer.Busy, s.Peer.Ops); eerr != nil {
		return nil, eerr
	}
	for i, es := range s.Computes {
		if eerr := ctx.ComputeAt(i).Restore(es.FreeAt, es.Busy, es.Ops); eerr != nil {
			return nil, eerr
		}
	}
	ctx.Clock().WaitUntil(s.Clock)
	ctx.RestoreRNGState(s.RNG)
	for _, ss := range s.Streams {
		if ss.Tail < 0 {
			return nil, fmt.Errorf("checkpoint: stream %q tail %v negative", ss.Name, ss.Tail)
		}
		if _, dup := out.Streams[ss.Name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate stream name %q", ss.Name)
		}
		out.Streams[ss.Name] = ctx.RestoreStream(ss.Name, ss.Tail)
	}
	drv.PublishResidency()

	// The full sanitizer audit is the restore gate: a snapshot that decoded
	// cleanly but encodes an inconsistent driver state is rejected here,
	// before the first resumed step can observe it.
	if serr := drv.CheckNow(); serr != nil {
		return nil, fmt.Errorf("checkpoint: restored state failed the sanitizer audit: %w", serr)
	}
	return out, nil
}
