package experiments

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
	"uvmdiscard/internal/workloads/radixsort"
)

func init() {
	register(Experiment{ID: "A1", Name: "ablation-eviction-order", Run: runAblationEvictionOrder})
	register(Experiment{ID: "A2", Name: "ablation-immediate-reclaim", Run: runAblationImmediateReclaim})
	register(Experiment{ID: "A3", Name: "ablation-prepared-tracking", Run: runAblationPreparedTracking})
	register(Experiment{ID: "A4", Name: "ablation-partial-discard", Run: runAblationPartialDiscard})
}

// runAblationEvictionOrder varies §5.5's eviction queue priority on FIR at
// 300% oversubscription with UvmDiscard. Putting the discarded queue after
// the LRU queue makes the eviction process swap live data out while free
// discarded chunks sit idle — traffic rises toward the no-discard level.
func runAblationEvictionOrder(o Options) (*Table, error) {
	orders := []struct {
		name  string
		order []metrics.EvictSource
	}{
		{"unused,discarded,lru (paper)", []metrics.EvictSource{metrics.EvictUnused, metrics.EvictDiscarded, metrics.EvictLRU}},
		{"discarded,unused,lru", []metrics.EvictSource{metrics.EvictDiscarded, metrics.EvictUnused, metrics.EvictLRU}},
		{"lru,unused,discarded", []metrics.EvictSource{metrics.EvictLRU, metrics.EvictUnused, metrics.EvictDiscarded}},
	}
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: eviction queue priority (FIR @300%, UvmDiscard)",
		Header: []string{"Order", "Traffic GB", "Runtime", "LRU evictions", "Discarded reclaims"},
	}
	t.Rows = make([][]string, len(orders))
	err := runCells(o, workloads.Platform{OversubPercent: 300}, len(t.Rows), func(p workloads.Platform, i int) error {
		spec := orders[i]
		f, gpu := fir.Preset(o.Quick)
		params := core.DefaultParams()
		params.EvictionOrder = spec.order
		p.GPU, p.Params = gpu, &params
		r, err := workloads.Run(p, workloads.UvmDiscard, f, nil)
		if err != nil {
			return err
		}
		// Re-derive queue stats from a dedicated run with a shared
		// collector is overkill; saved counters tell the story.
		t.Rows[i] = []string{spec.name, fmtGB(r.TrafficBytes), r.Runtime.String(),
			fmtGB(r.EvictD2H), fmtGB(r.SavedD2H)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"columns 4-5 are eviction D2H bytes vs transfer bytes saved by reclaiming discarded chunks")
	return t, nil
}

// runAblationImmediateReclaim compares §5.6's delayed physical reclamation
// against reclaiming at discard time, on radix-sort when everything fits:
// delayed reclamation lets re-accessed buffers recover their chunks without
// re-zeroing or re-populating.
func runAblationImmediateReclaim(o Options) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Ablation: delayed vs immediate reclamation (Radix-sort @<100%, UvmDiscard)",
		Header: []string{"Policy", "Runtime", "Traffic GB"},
	}
	policies := []struct {
		name      string
		immediate bool
	}{
		{"delayed (paper, §5.6)", false},
		{"immediate", true},
	}
	t.Rows = make([][]string, len(policies))
	err := runCells(o, workloads.Platform{OversubPercent: 0}, len(t.Rows), func(p workloads.Platform, i int) error {
		spec := policies[i]
		rs, gpu := radixsort.Preset(o.Quick)
		params := core.DefaultParams()
		params.ImmediateReclaim = spec.immediate
		p.GPU, p.Params = gpu, &params
		r, err := workloads.Run(p, workloads.UvmDiscard, rs, nil)
		if err != nil {
			return err
		}
		t.Rows[i] = []string{spec.name, r.Runtime.String(), fmtGB(r.TrafficBytes)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"immediate reclamation forfeits §5.7 recovery: every re-use re-zeroes a fresh chunk")
	return t, nil
}

// runAblationPreparedTracking measures §5.7's prepared-chunk tracking with
// a driver-level micro-benchmark: N discard/re-access cycles over a
// resident buffer. Without the tracking structure every recovery
// conservatively re-zeroes the whole 2 MiB chunk.
func runAblationPreparedTracking(o Options) (*Table, error) {
	blocks := 512
	cycles := 20
	if o.Quick {
		blocks, cycles = 64, 5
	}
	t := &Table{
		ID:     "A3",
		Title:  "Ablation: prepared-chunk tracking (discard/recover cycles)",
		Header: []string{"Tracking", "Zero-fill blocks", "Cycle time"},
	}
	specs := []struct {
		name     string
		tracking bool
	}{
		{"enabled (paper, §5.7)", true},
		{"disabled", false},
	}
	t.Rows = make([][]string, len(specs))
	p := workloads.Platform{GPU: gpudev.Generic(units.Size(blocks+8) * units.BlockSize)}
	err := runCells(o, p, len(t.Rows), func(p workloads.Platform, i int) error {
		spec := specs[i]
		params := core.DefaultParams()
		params.PreparedTracking = spec.tracking
		p.Params = &params
		ctx, err := p.NewContext(0)
		if err != nil {
			return err
		}
		buf, err := ctx.MallocManaged("a3", units.Size(blocks)*units.BlockSize)
		if err != nil {
			return err
		}
		s := ctx.Stream("s")
		if err := s.Launch(cuda.Kernel{Name: "touch",
			Accesses: []cuda.Access{{Buf: buf, Mode: core.Write}}}); err != nil {
			return err
		}
		start := ctx.Elapsed()
		for c := 0; c < cycles; c++ {
			if err := s.DiscardAll(buf); err != nil {
				return err
			}
			if err := s.PrefetchAll(buf, cuda.ToGPU); err != nil {
				return err
			}
		}
		ctx.DeviceSynchronize()
		zb, _ := ctx.Metrics().ZeroFills()
		cycleTime := (ctx.Elapsed() - start) / sim.Time(cycles)
		t.Rows[i] = []string{spec.name, fmt.Sprintf("%d", zb), cycleTime.String()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// runAblationPartialDiscard measures §5.4's granularity rule: discarding
// half of every 2 MiB block. The paper's driver ignores the partial
// request; the ablation splits the mapping, after which the live halves
// migrate as 4 KiB DMA operations whose cost outweighs the saved bytes.
func runAblationPartialDiscard(o Options) (*Table, error) {
	blocks := 256
	if o.Quick {
		blocks = 48
	}
	t := &Table{
		ID:     "A4",
		Title:  "Ablation: partial (sub-2MiB) discards",
		Header: []string{"Policy", "Eviction GB", "Eviction time", "Per-byte cost vs whole-block"},
	}
	specs := []struct {
		name  string
		allow bool
	}{
		{"ignore partial (paper, §5.4)", false},
		{"split blocks", true},
	}
	t.Rows = make([][]string, len(specs))
	p := workloads.Platform{GPU: gpudev.Generic(units.Size(blocks+4) * units.BlockSize)}
	err := runCells(o, p, len(t.Rows), func(p workloads.Platform, i int) error {
		spec := specs[i]
		params := core.DefaultParams()
		params.AllowPartialDiscard = spec.allow
		p.Params = &params
		ctx, err := p.NewContext(0)
		if err != nil {
			return err
		}
		buf, err := ctx.MallocManaged("a4", units.Size(blocks)*units.BlockSize)
		if err != nil {
			return err
		}
		s := ctx.Stream("s")
		if err := s.Launch(cuda.Kernel{Name: "touch",
			Accesses: []cuda.Access{{Buf: buf, Mode: core.Write}}}); err != nil {
			return err
		}
		// Discard the first half of every block.
		for b := 0; b < blocks; b++ {
			off := units.Size(b) * units.BlockSize
			if err := s.DiscardAsync(buf, off, units.BlockSize/2); err != nil {
				return err
			}
		}
		// Force eviction of the whole buffer by allocating past capacity.
		pressure, err := ctx.MallocManaged("pressure", units.Size(blocks+3)*units.BlockSize)
		if err != nil {
			return err
		}
		start := ctx.Elapsed()
		if err := s.Launch(cuda.Kernel{Name: "pressure",
			Accesses: []cuda.Access{{Buf: pressure, Mode: core.Write}}}); err != nil {
			return err
		}
		ctx.DeviceSynchronize()
		evictBytes := ctx.Metrics().Bytes(metrics.D2H, metrics.CauseEviction)
		evictTime := ctx.Elapsed() - start
		perByte := "1.00x"
		if evictBytes > 0 {
			full := ctx.Driver().Link().TransferTime(uint64(units.BlockSize))
			wholeRate := float64(units.BlockSize) / full.Seconds()
			rate := float64(evictBytes) / evictTime.Seconds()
			perByte = fmt.Sprintf("%.1fx slower", wholeRate/rate)
		}
		t.Rows[i] = []string{spec.name, fmtGB(evictBytes), evictTime.String(), perByte}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"splitting halves the evicted bytes but pays per-4KiB DMA latency on the live remainder")
	return t, nil
}

func init() {
	register(Experiment{ID: "A5", Name: "ablation-fault-batch", Run: runAblationFaultBatch})
}

// runAblationFaultBatch varies the driver's replayable-fault batch size on
// the fault-driven radix-sort at 200% oversubscription. Small batches pay
// the fault-service latency per block; large batches amortize it — the
// batching the real driver performs when the GPU reports faults (§2.2).
func runAblationFaultBatch(o Options) (*Table, error) {
	t := &Table{
		ID:     "A5",
		Title:  "Ablation: fault-service batch size (Radix-sort @200%, UVM-opt)",
		Header: []string{"Batch blocks", "Runtime", "Traffic GB"},
	}
	batches := []int{1, 4, 16, 64}
	t.Rows = make([][]string, len(batches))
	err := runCells(o, workloads.Platform{OversubPercent: 200}, len(t.Rows), func(p workloads.Platform, i int) error {
		rs, gpu := radixsort.Preset(o.Quick)
		params := core.DefaultParams()
		params.FaultBatchBlocks = batches[i]
		p.GPU, p.Params = gpu, &params
		r, err := workloads.Run(p, workloads.UVMOpt, rs, nil)
		if err != nil {
			return err
		}
		t.Rows[i] = []string{fmt.Sprintf("%d", batches[i]), r.Runtime.String(), fmtGB(r.TrafficBytes)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"traffic is identical by construction; the batch size only changes fault-service time")
	return t, nil
}
