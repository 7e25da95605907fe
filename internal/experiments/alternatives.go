package experiments

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func init() {
	register(Experiment{ID: "X4", Name: "free-vs-discard", Run: runFreeVsDiscard})
}

// runFreeVsDiscard quantifies §3.1's argument: "The user program may choose
// to free and reallocate the intermediate buffer. However ... repeatedly
// freeing and reallocating them imposes other overhead beyond redundant
// memory transfers." A temporary buffer is repurposed every iteration
// under memory pressure, with four strategies:
//
//   - keep (plain UVM): the dead contents ping-pong across the bus.
//   - free+realloc: no RMTs, but every iteration pays cudaFree+cudaMalloc
//     (Table 2's costly calls) and re-zeroes fresh memory.
//   - discard (eager) and discard (lazy): no RMTs, tiny API cost.
func runFreeVsDiscard(o Options) (*Table, error) {
	gpuBlocks := 64
	tmpBlocks := 48
	iters := 24
	if o.Quick {
		gpuBlocks, tmpBlocks, iters = 16, 12, 8
	}
	t := &Table{
		ID:     "X4",
		Title:  "Extension (§3.1): strategies for repurposing a dead temporary buffer",
		Header: []string{"Strategy", "Traffic GB", "API time", "Runtime", "vs keep"},
	}
	type outcome struct {
		traffic uint64
		apiTime sim.Time
		runtime sim.Time
	}
	strategies := []string{"keep", "free", "discard", "discard-lazy"}
	outcomes := make([]outcome, len(strategies))
	p := workloads.Platform{GPU: gpudev.Generic(units.Size(gpuBlocks) * units.BlockSize)}
	err := runCells(o, p, len(outcomes), func(p workloads.Platform, k int) error {
		strategy := strategies[k]
		ctx, err := p.NewContext(0)
		if err != nil {
			return err
		}
		s := ctx.Stream("s")
		tmpSize := units.Size(tmpBlocks) * units.BlockSize
		// A persistent buffer applies pressure so the temporary's blocks
		// get evicted between iterations.
		hot, err := ctx.MallocManaged("hot", units.Size(gpuBlocks-tmpBlocks+4)*units.BlockSize)
		if err != nil {
			return err
		}
		tmp, err := ctx.MallocManaged("tmp", tmpSize)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if strategy == "discard-lazy" && i > 0 {
				// The lazy flavor's mandatory pairing prefetch goes right
				// before the buffer is repurposed (§4.2/§5.2) — not right
				// after the discard, which would revive the blocks before
				// the eviction pressure could reclaim them.
				if err := s.PrefetchAll(tmp, cuda.ToGPU); err != nil {
					return err
				}
			}
			if err := s.Launch(cuda.Kernel{
				Name:     "use-tmp",
				Compute:  ctx.ComputeForBytes(float64(tmpSize)),
				Accesses: []cuda.Access{{Buf: tmp, Mode: core.Write}},
			}); err != nil {
				return err
			}
			// The temporary's contents are now dead.
			switch strategy {
			case "keep":
				// Nothing: UVM will ping-pong the dead bytes.
			case "free":
				if err := tmp.Free(); err != nil {
					return err
				}
				if tmp, err = ctx.MallocManaged("tmp", tmpSize); err != nil {
					return err
				}
			case "discard":
				if err := s.DiscardAll(tmp); err != nil {
					return err
				}
			case "discard-lazy":
				if err := s.DiscardLazyAll(tmp); err != nil {
					return err
				}
			}
			// Interleaved pressure: the hot buffer gets touched, pushing
			// the temporary's blocks toward eviction.
			if err := s.Launch(cuda.Kernel{
				Name:     "use-hot",
				Compute:  ctx.ComputeForBytes(float64(hot.Size())),
				Accesses: []cuda.Access{{Buf: hot, Mode: core.ReadWrite}},
			}); err != nil {
				return err
			}
		}
		ctx.DeviceSynchronize()
		m := ctx.Metrics()
		api := m.APITime("cudaFree") + m.APITime("cudaMallocManaged") +
			m.APITime("UvmDiscard") + m.APITime("UvmDiscardLazy") +
			m.APITime("cudaMemPrefetchAsync")
		outcomes[k] = outcome{traffic: m.Traffic(), apiTime: api, runtime: ctx.Elapsed()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	keep := outcomes[0]
	for i, oc := range outcomes {
		rel := "-"
		if i > 0 && keep.runtime > 0 {
			rel = fmt.Sprintf("%.2fx faster", float64(keep.runtime)/float64(oc.runtime))
		}
		t.AddRow(strategies[i], fmtGB(oc.traffic), oc.apiTime.String(), oc.runtime.String(), rel)
	}
	t.Notes = append(t.Notes,
		"free+realloc avoids the RMTs but pays allocation API costs and loses §5.7 recovery",
		"the discard directive gets the same traffic savings at a fraction of the API cost (Table 2)")
	return t, nil
}
