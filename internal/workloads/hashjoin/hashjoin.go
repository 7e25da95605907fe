// Package hashjoin models the paper's GPU database workload (§7.4): a
// hardware-conscious hash join whose memory footprint exceeds GPU memory.
// Each batch loads fresh table partitions, runs two preprocessing kernels
// that build hashed partitions into large intermediate buffers (each with
// its own workspace), and probes them to produce the joined result, which
// is consumed on the GPU. The process repeats over further batches and a
// second join, reusing the same buffers — "which simulates what happens in
// a GPU database".
//
// Almost everything this pipeline touches is dead shortly after it is
// produced: the consumed table partitions, both workspaces, both hashed
// partition buffers, and the result. Under oversubscription UVM-opt
// ping-pongs all of it — eviction swaps dead buffers out (D2H) and
// write-faults pull them back in (H2D) when the buffers are repurposed,
// because the driver cannot know the contents are dead. With discard, the
// eviction process reclaims dead chunks for free and repurposing maps
// fresh zeroed memory, so traffic collapses to the required table loads —
// the paper's largest win (4.17x speedup, 85.8% of transfers eliminated at
// 200%, Tables 7 and 8).
//
// Sizing: every kernel's live working set just fits within available
// memory at 200% oversubscription. At 300% the probe kernel's set
// (partitions + result) exceeds it, so its second scattered probe pass
// re-faults partitions evicted by the result writes — intra-kernel
// thrashing that discard cannot eliminate, which is why the systems
// converge toward 400%.
package hashjoin

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config sizes the workload.
type Config struct {
	// TableBytes is the size of each per-batch table partition (R and S
	// sides); fresh partitions are generated for every batch.
	TableBytes units.Size
	// IntermediateBytes is the size of each hashed-partition buffer (IR,
	// IS).
	IntermediateBytes units.Size
	// WorkspaceBytes is the size of each preprocessing kernel's
	// workspace (one per side).
	WorkspaceBytes units.Size
	// ResultBytes is the joined-output buffer, consumed on the GPU.
	ResultBytes units.Size
	// Joins is how many hash-join operations run (the paper times two).
	Joins int
	// Batches is how many table batches each join processes.
	Batches int
	// Rate is the kernels' effective processing rate (bytes/second).
	Rate float64
}

// DefaultConfig reproduces the paper's setup: ~5.9 GB footprint, ~3 GB of
// required table traffic across both joins.
func DefaultConfig() Config {
	return Config{
		TableBytes:        237 * units.MiB,
		IntermediateBytes: 800 * units.MiB,
		WorkspaceBytes:    1100 * units.MiB,
		ResultBytes:       1050 * units.MiB,
		Joins:             2,
		Batches:           3,
		Rate:              60e9,
	}
}

// Preset returns a fresh run at the paper's size on the RTX 3080 Ti or,
// with quick, at the scaled-down size of the quick suite and quick service
// jobs, and the GPU the preset runs on.
func Preset(quick bool) (*Join, gpudev.Profile) {
	h, gpu := &Join{Config: DefaultConfig()}, gpudev.RTX3080Ti()
	if quick {
		h.TableBytes, h.IntermediateBytes = 24*units.MiB, 80*units.MiB
		h.WorkspaceBytes, h.ResultBytes, gpu = 110*units.MiB, 104*units.MiB, gpudev.Generic(600*units.MiB)
	}
	return h, gpu
}

// Footprint is the application's GPU memory consumption.
func (c Config) Footprint() units.Size {
	al := func(n units.Size) units.Size { return units.AlignUp(n, units.BlockSize) }
	return 2*al(c.TableBytes) + 2*al(c.IntermediateBytes) + 2*al(c.WorkspaceBytes) + al(c.ResultBytes)
}

func (c Config) validate() error {
	if c.TableBytes == 0 || c.IntermediateBytes == 0 || c.WorkspaceBytes == 0 ||
		c.ResultBytes == 0 || c.Joins <= 0 || c.Batches <= 0 || c.Rate <= 0 {
		return fmt.Errorf("hashjoin: invalid config %+v", c)
	}
	return nil
}

// Run executes the hash joins under the given system and platform.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (workloads.Result, error) {
	return workloads.Run(p, sys, &Join{Config: cfg}, nil)
}

// Join is one hash-join run for workloads.Run: step i is batch
// i%Batches of join i/Batches. It cannot resume from a snapshot: each
// batch frees its consumed tables, and checkpoint.Capture refuses a VA
// space with freed allocations.
type Join struct {
	Config

	ctx                 *cuda.Context
	sys                 workloads.System
	s                   *cuda.Stream
	ir, is, w1, w2, out *cuda.Buffer
	// r and sTab are the current batch's table partitions.
	r, sTab *cuda.Buffer
}

// Name implements workloads.Stepper.
func (h *Join) Name() string { return "hashjoin" }

// Steps is the number of batches over all joins.
func (h *Join) Steps() int { return h.Joins * h.Batches }

// Setup allocates the reused buffers and generates the first batch's
// tables: that generation is pre-processing, while later batches generate
// mid-pipeline as a database would.
func (h *Join) Setup(ctx *cuda.Context, _ workloads.Platform, sys workloads.System) error {
	if err := workloads.RequireUVM("hashjoin", sys); err != nil {
		return err
	}
	if err := h.validate(); err != nil {
		return err
	}
	h.ctx, h.sys = ctx, sys
	for _, spec := range []struct {
		dst  **cuda.Buffer
		name string
		size units.Size
	}{
		{&h.ir, "parts-r", h.IntermediateBytes},
		{&h.is, "parts-s", h.IntermediateBytes},
		{&h.w1, "workspace-r", h.WorkspaceBytes},
		{&h.w2, "workspace-s", h.WorkspaceBytes},
		{&h.out, "result", h.ResultBytes},
	} {
		b, err := ctx.MallocManaged(spec.name, spec.size)
		if err != nil {
			return err
		}
		*spec.dst = b
	}
	h.s = ctx.Stream("main")
	return h.tables(0)
}

// tables generates step i's table partitions on the host, in fresh
// allocations: the database hands the join new input buffers each batch
// and they are freed once consumed.
func (h *Join) tables(i int) (err error) {
	join, batch := i/h.Batches, i%h.Batches
	if h.r, err = h.ctx.MallocManaged(fmt.Sprintf("table-r-%d-%d", join, batch), h.TableBytes); err != nil {
		return err
	}
	if h.sTab, err = h.ctx.MallocManaged(fmt.Sprintf("table-s-%d-%d", join, batch), h.TableBytes); err != nil {
		return err
	}
	if err := h.r.HostWrite(0, h.r.Size()); err != nil {
		return err
	}
	return h.sTab.HostWrite(0, h.sTab.Size())
}

// Step runs one batch: load the tables, preprocess both sides into the
// hashed partitions, probe, and discard everything the batch left dead.
func (h *Join) Step(i int) error {
	if i > 0 {
		if err := h.tables(i); err != nil {
			return err
		}
	}
	if err := h.s.PrefetchAll(h.r, cuda.ToGPU); err != nil {
		return err
	}
	if err := h.s.PrefetchAll(h.sTab, cuda.ToGPU); err != nil {
		return err
	}

	// Preprocess each side: re-prefault the repurposed partitions (§4.2;
	// mandatory pairing for the lazy flavor), then build. The consumed table
	// is freed. The workspace is dead until the next batch, whose kernels
	// repurpose it through faults, without a prefetch, so its discard stays
	// eager even under the lazy system.
	for _, side := range [...]struct {
		kernel             string
		table, work, parts *cuda.Buffer
	}{{"preprocess-r", h.r, h.w1, h.ir}, {"preprocess-s", h.sTab, h.w2, h.is}} {
		if err := h.s.PrefetchAll(side.parts, cuda.ToGPU); err != nil {
			return err
		}
		err := h.kernel(side.kernel,
			cuda.Access{Buf: side.table, Mode: core.Read},
			cuda.Access{Buf: side.work, Mode: core.ReadWrite},
			cuda.Access{Buf: side.parts, Mode: core.Write},
		)
		if err != nil {
			return err
		}
		if err := side.table.Free(); err != nil {
			return err
		}
		if err := workloads.DiscardPaired(h.sys, h.s, side.work, false); err != nil {
			return err
		}
	}

	// Probe: scattered pass over the build side, stream the probe side,
	// emit results, then a second scattered probe pass after the result
	// writes — the pass that thrashes once the probe set no longer fits
	// (>=300%).
	if err := h.s.PrefetchAll(h.out, cuda.ToGPU); err != nil {
		return err
	}
	err := h.kernel("probe-join",
		cuda.Access{Buf: h.ir, Mode: core.Read},
		cuda.Access{Buf: h.is, Mode: core.Read},
		cuda.Access{Buf: h.ir, Length: h.IntermediateBytes / 2, Mode: core.Read, Scatter: true},
		cuda.Access{Buf: h.out, Mode: core.Write},
	)
	if err != nil {
		return err
	}
	// The partitions and the consumed result are dead.
	for _, b := range []*cuda.Buffer{h.ir, h.is, h.out} {
		if err := workloads.Discard(h.sys, h.s, b); err != nil {
			return err
		}
	}
	return nil
}

func (h *Join) kernel(name string, accesses ...cuda.Access) error {
	var touched float64
	for _, a := range accesses {
		length := a.Length
		if length == 0 {
			length = a.Buf.Size()
		}
		passes := a.Passes
		if passes <= 0 {
			passes = 1
		}
		touched += float64(length) * float64(passes)
	}
	return h.s.Launch(cuda.Kernel{
		Name:     name,
		Compute:  sim.TransferTime(uint64(touched), h.Rate),
		Accesses: accesses,
	})
}
