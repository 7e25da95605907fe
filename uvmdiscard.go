// Package uvmdiscard is a simulator of NVIDIA's UVM (unified virtual
// memory) driver with the data-discard directive proposed in
//
//	Zhu, Cox, Vesely, Hairgrove, Cox, Rixner:
//	"UVM Discard: Eliminating Redundant Memory Transfers for Accelerators",
//	IISWC 2022.
//
// The simulator models the driver's state machines — fault-driven
// migration, prefetching, eviction with the free/unused/used/discarded
// page queues, 2 MiB chunk management — on a virtual timeline, together
// with a CUDA-like runtime (streams, managed buffers, kernels with
// block-granular access traces). Two discard flavors are implemented:
// the eager UvmDiscard, which destroys mappings immediately, and
// UvmDiscardLazy, which clears software dirty bits and requires a pairing
// prefetch before reuse.
//
// This package is the public facade: it re-exports the runtime and the
// driver configuration types. The paper's workloads, model zoo, and
// experiment harness live under internal/ and are driven by the cmd/
// binaries (cmd/paperbench regenerates every table and figure).
//
// Minimal use:
//
//	ctx, _ := uvmdiscard.NewContext(uvmdiscard.Config{GPU: uvmdiscard.RTX3080Ti()})
//	buf, _ := ctx.MallocManaged("data", 64<<20)
//	s := ctx.Stream("main")
//	s.PrefetchAll(buf, uvmdiscard.ToGPU)
//	s.Launch(uvmdiscard.Kernel{Name: "consume", Accesses: []uvmdiscard.Access{
//		{Buf: buf, Mode: uvmdiscard.Read},
//	}})
//	s.DiscardAll(buf) // the contents are dead: skip future transfers
package uvmdiscard

import (
	"uvmdiscard/internal/advisor"
	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/hostmem"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
)

// Runtime types (CUDA-like API).
type (
	// Context owns one simulated GPU, its UVM driver, and the timeline.
	Context = cuda.Context
	// Stream is an in-order queue of device operations.
	Stream = cuda.Stream
	// Buffer is a unified-memory allocation.
	Buffer = cuda.Buffer
	// DeviceBuffer is an explicit (non-UVM) device allocation.
	DeviceBuffer = cuda.DeviceBuffer
	// Kernel is a device kernel launch: compute time + access trace.
	Kernel = cuda.Kernel
	// Access declares one range a kernel touches.
	Access = cuda.Access
	// Event orders operations across streams.
	Event = cuda.Event
	// Location is a prefetch destination.
	Location = cuda.Location
)

// Driver-level types.
type (
	// Config assembles a simulated platform.
	Config = core.Config
	// Params holds driver policy knobs (eviction order, reclamation
	// ablations, fault batching).
	Params = core.Params
	// Driver is the UVM driver model itself.
	Driver = core.Driver
	// AccessMode says whether an access reads, overwrites, or both.
	AccessMode = core.AccessMode
	// Advice is a cudaMemAdvise-style placement hint.
	Advice = core.Advice
	// APICosts models host-side CUDA API call costs (Table 2).
	APICosts = core.APICosts
	// GPUProfile describes a GPU's capacity and rate parameters.
	GPUProfile = gpudev.Profile
	// Metrics collects transfer/fault/eviction instrumentation.
	Metrics = metrics.Collector
	// TraceRecorder records driver events for RMT analysis. Its Events
	// method returns a copy of the recorded events.
	TraceRecorder = trace.Recorder
	// RMTAnalysis classifies recorded transfers as required or redundant.
	RMTAnalysis = trace.Analysis
	// AdvisorReport ranks buffers by the transfer volume a discard would
	// have saved (the §8 "compiler-assisted insertion" extension).
	AdvisorReport = advisor.Report
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Size is a byte count.
	Size = units.Size
)

// Access modes.
const (
	// Read consumes the range's existing contents.
	Read = core.Read
	// Write overwrites the range without reading it.
	Write = core.Write
	// ReadWrite reads then updates the range.
	ReadWrite = core.ReadWrite
)

// Memory advice (cudaMemAdvise analogs).
const (
	// AdviseSetPreferredCPU pins a range's home to host DRAM (GPU maps it
	// remotely).
	AdviseSetPreferredCPU = core.AdviseSetPreferredCPU
	// AdviseSetPreferredGPU pins a range's home to GPU memory (eviction
	// avoids it).
	AdviseSetPreferredGPU = core.AdviseSetPreferredGPU
	// AdviseUnsetPreferred clears the preferred location.
	AdviseUnsetPreferred = core.AdviseUnsetPreferred
	// AdviseSetReadMostly allows read-only duplication on both processors.
	AdviseSetReadMostly = core.AdviseSetReadMostly
	// AdviseUnsetReadMostly clears the read-mostly hint.
	AdviseUnsetReadMostly = core.AdviseUnsetReadMostly
)

// Prefetch destinations.
const (
	// ToGPU prefetches toward the device.
	ToGPU = cuda.ToGPU
	// ToCPU prefetches toward the host.
	ToCPU = cuda.ToCPU
)

// Transfer directions for Metrics queries.
const (
	// H2D is host-to-device traffic.
	H2D = metrics.H2D
	// D2H is device-to-host traffic.
	D2H = metrics.D2H
)

// Transfer causes for Metrics queries.
const (
	// CauseFault is fault-driven migration.
	CauseFault = metrics.CauseFault
	// CausePrefetch is cudaMemPrefetchAsync migration.
	CausePrefetch = metrics.CausePrefetch
	// CauseEviction is swap-out under memory pressure.
	CauseEviction = metrics.CauseEviction
	// CauseMemcpy is an explicit copy (No-UVM).
	CauseMemcpy = metrics.CauseMemcpy
	// CauseRemote is cache-coherent remote access over the link.
	CauseRemote = metrics.CauseRemote
)

// Size units.
const (
	// KiB is 1024 bytes.
	KiB = units.KiB
	// MiB is 1024 KiB.
	MiB = units.MiB
	// GiB is 1024 MiB.
	GiB = units.GiB
	// BlockSize is the driver's 2 MiB management granularity.
	BlockSize = units.BlockSize
	// PageSize is the 4 KiB small page.
	PageSize = units.PageSize
)

// NewContext builds a simulated platform and its CUDA-like runtime.
func NewContext(cfg Config) (*Context, error) { return cuda.NewContext(cfg) }

// DefaultParams returns the driver policy configuration that reproduces
// the paper's system.
func DefaultParams() Params { return core.DefaultParams() }

// DefaultAPICosts returns the CUDA API cost models calibrated on Table 2.
func DefaultAPICosts() *APICosts { return core.DefaultAPICosts() }

// RTX3080Ti is the paper's primary evaluation GPU (§7.1).
func RTX3080Ti() GPUProfile { return gpudev.RTX3080Ti() }

// GTX1070 is the GPU used for Table 1.
func GTX1070() GPUProfile { return gpudev.GTX1070() }

// A100 is the data-center GPU whose bandwidth figures §2.3 quotes.
func A100() GPUProfile { return gpudev.A100() }

// NVLink returns the cache-coherent NVLink-class host interconnect model
// (§2.3): pair with Params.RemoteAccessMigrateThreshold for the
// remote-access mode.
func NVLink() *pcie.Link { return pcie.Preset(pcie.GenNVLink) }

// GenericGPU returns a synthetic GPU with the given memory capacity —
// convenient for small experiments.
func GenericGPU(memory Size) GPUProfile { return gpudev.Generic(memory) }

// PCIe3 returns the PCIe 3.0 x16 interconnect model (~12.3 GB/s).
func PCIe3() *pcie.Link { return pcie.Preset(pcie.Gen3) }

// PCIe4 returns the PCIe 4.0 x16 interconnect model (~24.7 GB/s).
func PCIe4() *pcie.Link { return pcie.Preset(pcie.Gen4) }

// DefaultHost returns the paper's 64 GB host DRAM model.
func DefaultHost() *hostmem.Host { return hostmem.Default() }

// NewTraceRecorder returns an RMT trace recorder to pass in Config.Trace.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// AnalyzeRMT classifies every recorded transfer as required or redundant —
// the analysis behind the paper's Figure 3.
func AnalyzeRMT(r *TraceRecorder) RMTAnalysis { return trace.Analyze(r) }

// AdviseDiscards scans a profiling trace for buffers whose transfers moved
// dead data and recommends discard insertion points — the extension the
// paper's related work sketches (§8). The context's VA space resolves
// buffer names.
func AdviseDiscards(ctx *Context) *AdvisorReport {
	space := ctx.Driver().Space()
	return advisor.Analyze(ctx.Driver().Trace(), func(id int) string {
		if a := space.ByID(id); a != nil {
			return a.Name()
		}
		return ""
	})
}

// FormatSize renders a byte count ("2 MiB").
func FormatSize(n Size) string { return units.Format(n) }
