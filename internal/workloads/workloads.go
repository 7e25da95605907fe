// Package workloads holds the shared vocabulary of the paper's evaluation
// (§7.1): the systems under test, the platform description (GPU profile,
// PCIe generation, oversubscription ratio), and the result record every
// benchmark produces. It also holds the step contract: fir, radixsort,
// hashjoin and graph (the subpackages) are each a Stepper (host setup, then
// a fixed sequence of prefetch → kernel → discard steps), and Run is the
// one runner that owns run control, context construction and checkpoint
// markers for all of them. The subpackage catalog looks them up by
// name. The deep-learning loops (internal/dnn, internal/lms) are Steppers
// too, which dnn.Measure runs through Run.
package workloads

import (
	"fmt"
	"strings"

	"uvmdiscard/internal/advisor"
	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
)

// System identifies one of the evaluated memory-management systems.
type System int

const (
	// UVMOpt is the baseline: UVM with prefetching and overlap (§7.1).
	UVMOpt System = iota
	// UvmDiscard adds eager discards over UVM-opt.
	UvmDiscard
	// UvmDiscardLazy replaces prefetch-paired discards with lazy ones.
	UvmDiscardLazy
	// NoUVM is the classic explicit-buffer model (Listings 1/4); only
	// valid when everything fits on the GPU.
	NoUVM
	// PyTorchLMS is the manual per-layer swapping approach with a caching
	// allocator (Listing 5 / Table 1).
	PyTorchLMS
)

// String names the system the way the paper's tables do.
func (s System) String() string {
	switch s {
	case UVMOpt:
		return "UVM-opt"
	case UvmDiscard:
		return "UvmDiscard"
	case UvmDiscardLazy:
		return "UvmDiscardLazy"
	case NoUVM:
		return "No-UVM"
	case PyTorchLMS:
		return "PyTorch-LMS"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// systemNames maps each accepted system name, lower-cased, to its system:
// the name the paper's tables print (System.String) and a short alias.
var systemNames = map[string]System{
	"": UVMOpt, "uvm-opt": UVMOpt, "uvmopt": UVMOpt,
	"uvmdiscard": UvmDiscard, "discard": UvmDiscard,
	"uvmdiscardlazy": UvmDiscardLazy, "lazy": UvmDiscardLazy,
	"no-uvm": NoUVM, "nouvm": NoUVM,
	"pytorch-lms": PyTorchLMS, "lms": PyTorchLMS,
}

// ParseSystem resolves a system name, ignoring case; empty means UVM-opt.
func ParseSystem(name string) (System, error) {
	if sys, ok := systemNames[strings.ToLower(strings.TrimSpace(name))]; ok {
		return sys, nil
	}
	return 0, fmt.Errorf("unknown system %q (want UVM-opt, UvmDiscard, UvmDiscardLazy, No-UVM or PyTorch-LMS)", name)
}

// UsesDiscard reports whether the system issues discard directives.
func (s System) UsesDiscard() bool { return s == UvmDiscard || s == UvmDiscardLazy }

// RequireUVM is the system check of the micro-benchmarks (§7.2–7.4), which
// the paper evaluates under UVM-opt and the discard flavors only.
func RequireUVM(name string, sys System) error {
	if sys == NoUVM || sys == PyTorchLMS {
		return fmt.Errorf("%s: system %v not part of the paper's evaluation", name, sys)
	}
	return nil
}

// Discard issues the system's discard flavor over a whole buffer; a no-op
// for systems without discard. For UvmDiscardLazy the caller must pair the
// discard with a prefetch before reuse (§5.2) — the workloads do, except
// where the paper says some eager discards cannot be replaced (§7.1).
func Discard(sys System, s *cuda.Stream, b *cuda.Buffer) error {
	switch sys {
	case UvmDiscard:
		return s.DiscardAll(b)
	case UvmDiscardLazy:
		return s.DiscardLazyAll(b)
	default:
		return nil
	}
}

// DiscardPaired is Discard with the lazy flavor only where the buffer's
// reuse is prefetch-paired; unpaired, the lazy system discards eagerly (§7.1).
func DiscardPaired(sys System, s *cuda.Stream, b *cuda.Buffer, paired bool) error {
	if sys == UvmDiscardLazy && !paired {
		sys = UvmDiscard
	}
	return Discard(sys, s, b)
}

// DiscardRange is Discard over a sub-range.
func DiscardRange(sys System, s *cuda.Stream, b *cuda.Buffer, off, length units.Size) error {
	switch sys {
	case UvmDiscard:
		return s.DiscardAsync(b, off, length)
	case UvmDiscardLazy:
		return s.DiscardLazyAsync(b, off, length)
	default:
		return nil
	}
}

// Platform describes the hardware configuration of one experiment run.
type Platform struct {
	// GPU is the device profile (RTX 3080 Ti for §7, GTX 1070 for
	// Table 1).
	GPU gpudev.Profile
	// GPUs is how many GPUs of profile GPU share the peer fabric; zero or
	// one means a single GPU. The oversubscription reservation applies to
	// GPU 0 only.
	GPUs int
	// Gen selects PCIe 3 or 4.
	Gen pcie.Generation
	// OversubPercent is the paper's oversubscription ratio in percent:
	// values <= 100 mean the workload fits (no reservation); 200 means
	// the application's footprint is twice the available GPU memory,
	// which the platform arranges by reserving capacity (§7.1).
	OversubPercent int
	// TraceRMT enables driver-event tracing for RMT analysis.
	TraceRMT bool
	// Params overrides the driver's policy parameters (ablations); nil
	// uses core.DefaultParams.
	Params *core.Params
	// Faults attaches a fault-injection schedule (internal/faultinject):
	// every context built from the platform gets its own fresh Injector
	// from this shared schedule, preserving run isolation.
	Faults *faultinject.Config
	// Metrics, when non-nil, supplies the run's collector instead of a
	// fresh one. The uvmsimd service passes a per-job collector here so
	// its /metrics exporter can snapshot a live run's counters and
	// per-device residency while the simulation is still going. Concurrent
	// readers may load a Collector's atomic counters while its run writes
	// them; the driver folds its per-block counts in batches, so a live
	// view is at most one residency-publishing stride old, and the
	// collector is exact once the run has finished, failed or been
	// interrupted. Per-run isolation still holds: a Collector must never
	// be shared between two simultaneously executing runs (its counters
	// would interleave).
	Metrics *metrics.Collector
	// Control attaches a run control (internal/runctl): the driver loop
	// polls it and aborts the run with a structured *runctl.Interrupt on
	// cancellation or budget exhaustion; Run (and the experiments' cell
	// runner, for cells that drive a context directly) converts the abort
	// back into an ordinary error with runctl.Recover. Unlike
	// Faults, a Control is per-run mutable state: build a fresh one for
	// every run (a Platform carrying a Control must not be reused across
	// concurrent runs).
	Control *runctl.Control
}

// DefaultPlatform is the paper's primary evaluation machine: 3080 Ti on
// PCIe-4, workload fitting in memory.
func DefaultPlatform() Platform {
	return Platform{GPU: gpudev.RTX3080Ti(), Gen: pcie.Gen4, OversubPercent: 0}
}

// Reservation computes how much GPU memory must be pinned away so that an
// application footprint of appBytes oversubscribes the remainder by
// OversubPercent.
func (p Platform) Reservation(appBytes units.Size) (units.Size, error) {
	total := units.AlignDown(p.GPU.MemoryBytes, units.BlockSize)
	if p.OversubPercent <= 100 {
		// No reservation: either the workload fits, or (as in the DL
		// experiments, §7.5) it oversubscribes naturally through its own
		// footprint and UVM handles the pressure.
		return 0, nil
	}
	available := units.AlignDown(appBytes*100/units.Size(p.OversubPercent), units.BlockSize)
	if available < units.BlockSize {
		available = units.BlockSize
	}
	if available >= total {
		return 0, fmt.Errorf("workloads: footprint %s at %d%% needs %s available but GPU only has %s — cannot oversubscribe",
			units.Format(appBytes), p.OversubPercent, units.Format(available), units.Format(total))
	}
	return total - available, nil
}

// NewContext builds a CUDA context for an application with the given
// footprint on this platform: the only place a platform becomes a driver.
func (p Platform) NewContext(appBytes units.Size) (*cuda.Context, error) {
	reserved, err := p.Reservation(appBytes)
	if err != nil {
		return nil, err
	}
	gen := p.Gen
	if gen == 0 {
		gen = pcie.Gen4
	}
	cfg := core.Config{
		GPU:           p.GPU,
		ReservedBytes: reserved,
		Link:          pcie.Preset(gen),
		Params:        p.Params,
		Faults:        p.Faults,
		Control:       p.Control,
		Metrics:       p.Metrics,
	}
	for i := 1; i < p.GPUs; i++ {
		cfg.PeerGPUs = append(cfg.PeerGPUs, p.GPU)
	}
	if p.TraceRMT {
		cfg.Trace = trace.NewRecorder()
	}
	return cuda.NewContext(cfg)
}

// Result is what every workload run reports — the quantities the paper's
// tables are built from.
type Result struct {
	System  System
	Runtime sim.Time
	// TrafficBytes is total PCIe traffic (the paper's "PCIe traffic (GB)"
	// rows).
	TrafficBytes uint64
	H2DBytes     uint64
	D2HBytes     uint64
	// SavedH2D/SavedD2H are the transfers the discard directive skipped.
	SavedH2D, SavedD2H uint64
	// FaultH2D, PrefetchH2D, EvictD2H, MigrateD2H break traffic down by
	// cause for analysis; RemoteH2D is coherent remote-access traffic;
	// PeerBytes is GPU-to-GPU fabric traffic (not part of TrafficBytes).
	FaultH2D, PrefetchH2D, EvictD2H, MigrateD2H, RemoteH2D, PeerBytes uint64
	// Analysis is the RMT classification when tracing was enabled.
	Analysis *trace.Analysis
	// Advice holds the discard advisor's recommendations when tracing was
	// enabled.
	Advice *advisor.Report
	// Trace is the raw driver trace when tracing was enabled (for JSON
	// export and offline re-analysis).
	Trace *trace.Recorder

	// Resilience counters, all zero when no fault schedule is attached:
	// retried migrations, reissued unmaps, replayed fault rounds, transfers
	// degraded to coherent host-pinned access, and quarantined chunks.
	MigrateRetries int64
	UnmapRetries   int64
	FaultReplays   int64
	DegradedXfers  int64
	DegradedBytes  uint64
	PoisonedChunks int64
	PoisonLostB    uint64
}

// TrafficGB returns traffic in decimal GB, as the paper reports it.
func (r Result) TrafficGB() float64 { return float64(r.TrafficBytes) / 1e9 }

// CollectSince is Collect with the runtime measured from a start timestamp,
// so workloads can exclude input pre-processing the way the paper's
// measurements do ("these measurements exclude the pre-processing of input
// data", §7.5).
func CollectSince(sys System, ctx *cuda.Context, start sim.Time) Result {
	r := Collect(sys, ctx)
	if r.Runtime > start {
		r.Runtime -= start
	}
	return r
}

// Collect populates a Result from a finished context. When the context is
// traced, it reads the RMT split and the discard advice from the recorder,
// which classified every block as the run recorded it; reading changes
// nothing, so Collect may be called again on the same context.
func Collect(sys System, ctx *cuda.Context) Result {
	// Final residency-gauge publish, so every finished run's collector
	// carries its end-state per-device occupancy (live runs are refreshed
	// on a checkpoint stride by the driver itself).
	ctx.Driver().PublishResidency()
	m := ctx.Metrics()
	h2dSaved, d2hSaved := m.Saved()
	peerBytes, _ := m.Peer()
	r := Result{
		System:       sys,
		PeerBytes:    peerBytes,
		Runtime:      ctx.Elapsed(),
		TrafficBytes: m.Traffic(),
		H2DBytes:     m.TotalBytes(metrics.H2D),
		D2HBytes:     m.TotalBytes(metrics.D2H),
		SavedH2D:     h2dSaved,
		SavedD2H:     d2hSaved,
		FaultH2D:     m.Bytes(metrics.H2D, metrics.CauseFault),
		PrefetchH2D:  m.Bytes(metrics.H2D, metrics.CausePrefetch),
		EvictD2H:     m.Bytes(metrics.D2H, metrics.CauseEviction),
		RemoteH2D:    m.Bytes(metrics.H2D, metrics.CauseRemote),
		MigrateD2H:   m.Bytes(metrics.D2H, metrics.CauseFault) + m.Bytes(metrics.D2H, metrics.CausePrefetch),
	}
	r.MigrateRetries = m.MigrateRetries()
	r.UnmapRetries = m.UnmapRetries()
	r.FaultReplays = m.FaultReplays()
	r.DegradedXfers, r.DegradedBytes = m.Degraded()
	poisoned, _, lost := m.Poisoned()
	r.PoisonedChunks, r.PoisonLostB = poisoned, lost
	if tr := ctx.Driver().Trace(); tr != nil {
		a, waste := tr.Classify()
		r.Analysis = &a
		r.Trace = tr
		space := ctx.Driver().Space()
		r.Advice = advisor.Rank(a, waste, func(id int) string {
			if al := space.ByID(id); al != nil {
				return al.Name()
			}
			return ""
		})
	}
	return r
}
