package experiments

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func init() {
	register(Experiment{ID: "X3", Name: "multigpu-pipeline", Run: runMultiGPUPipeline})
}

// runMultiGPUPipeline measures a two-GPU model-parallel pipeline: stage 0
// on GPU 0 writes an activation buffer, stage 1 on GPU 1 consumes it. The
// handoff migrates over the peer fabric (§2.3's GPU-to-GPU path). Without
// discard, the *next* microbatch's overwrite on GPU 0 first migrates the
// dead activation back GPU1→GPU0 — a peer-fabric RMT, the same semantic
// gap as on PCIe (§5.1 notes mappings "may even be replicated by a
// cache-coherent peer GPU"). Discarding after consumption halves the peer
// traffic.
func runMultiGPUPipeline(o Options) (*Table, error) {
	gpuMem := units.Size(4 * units.GiB)
	actBytes := units.Size(512 * units.MiB)
	micro := 16
	if o.Quick {
		gpuMem = 64 * units.MiB
		actBytes = 16 * units.MiB
		micro = 6
	}
	t := &Table{
		ID:    "X3",
		Title: "Extension: two-GPU pipeline handoffs (peer-fabric RMTs)",
		Header: []string{"System", "Peer GB", "Peer ops", "Peer saved GB",
			"PCIe GB", "Runtime"},
	}
	for _, sys := range []workloads.System{workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy} {
		ctx, err := o.arm(workloads.Platform{GPU: gpudev.Generic(gpuMem), GPUs: 2}).NewContext(0)
		if err != nil {
			return nil, err
		}
		act, err := ctx.MallocManaged("activation", actBytes)
		if err != nil {
			return nil, err
		}
		out, err := ctx.MallocManaged("stage1-out", actBytes/4)
		if err != nil {
			return nil, err
		}
		s := ctx.Stream("pipe")
		for mb := 0; mb < micro; mb++ {
			if sys == workloads.UvmDiscardLazy && mb > 0 {
				// The lazy flavor's mandatory pairing prefetch before the
				// buffer is repurposed on GPU 0 (§5.2).
				if err := s.PrefetchAllTo(act, 0); err != nil {
					return nil, err
				}
			}
			err := s.Launch(cuda.Kernel{
				Name: "stage0", GPU: 0,
				Compute:  ctx.ComputeForBytes(float64(2 * actBytes)),
				Accesses: []cuda.Access{{Buf: act, Mode: core.Write}},
			})
			if err != nil {
				return nil, err
			}
			err = s.Launch(cuda.Kernel{
				Name: "stage1", GPU: 1,
				Compute: ctx.ComputeForBytes(float64(2 * actBytes)),
				Accesses: []cuda.Access{
					{Buf: act, Mode: core.Read},
					{Buf: out, Mode: core.ReadWrite},
				},
			})
			if err != nil {
				return nil, err
			}
			// The handed-off activation is dead once stage 1 consumed it.
			if err := workloads.Discard(sys, s, act); err != nil {
				return nil, err
			}
		}
		ctx.DeviceSynchronize()
		m := ctx.Metrics()
		peerBytes, peerOps := m.Peer()
		t.AddRow(sys.String(), fmtGB(peerBytes), fmt.Sprintf("%d", peerOps),
			fmtGB(m.PeerSaved()), fmtGB(m.Traffic()), ctx.Elapsed().String())
	}
	t.Notes = append(t.Notes,
		"without discard every microbatch bounces the dead activation back to GPU 0 before overwriting it",
		"with discard only the forward (useful) handoff crosses the peer fabric",
		"on a fast fabric the eager unmap can cost more than the saved transfer — the lazy flavor keeps the win")
	return t, nil
}
