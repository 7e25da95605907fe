package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"uvmdiscard/internal/experiments"
)

// The generators turn a seed into a fixed list of ops. The seed permutes
// order and rotates parameter choices; it never changes how many ops of
// each class a run holds, so two seeds put the same kind of load on the
// system and only the interleaving differs.

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// paperOrder is one pass over every artifact, in a seed-permuted order.
func paperOrder(seed uint64, pass int) []experiments.Experiment {
	all := experiments.All()
	r := rng(seed, 100+uint64(pass))
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// paperPasses is the fixed number of whole passes a paper_full run makes.
// One pass takes 5 to 7 s on a 2-core x86 box.
func paperPasses(seconds int) int { return max(1, seconds/7) }

// simdOp is one uvmsimd request.
type simdOp struct {
	Kind     string   // run | ckpt | batch | resume | scrape
	Workload string   // run, ckpt
	System   string   // run, ckpt
	Ovsp     int      // run, ckpt
	Batch    []string // batch, resume: experiment IDs
	Name     string   // ckpt: snapshot name; batch, resume: journal name
}

// goldenKey names the op's expected output. A checkpointed FIR run shares
// its key with the plain run of the same point, and a resumed batch with
// its fresh run: both must render the same bytes.
func (o simdOp) goldenKey() string {
	switch o.Kind {
	case "run", "ckpt":
		return fmt.Sprintf("run/%s/%s/%d", o.Workload, o.System, o.Ovsp)
	case "batch", "resume":
		return "batch/" + strings.Join(o.Batch, "+")
	}
	return ""
}

var (
	simdWorkloads = []string{"fir", "radixsort", "hashjoin", "graph"}
	simdSystems   = []string{"UVM-opt", "UvmDiscard", "UvmDiscardLazy"}
	simdRatios    = []int{0, 150, 200, 300, 400}
	// batchSelections are the quick journaled batches: cheap artifacts, so
	// the journal and the batch runner carry the cost.
	batchSelections = [][]string{{"T2", "A3"}, {"A4", "X4"}, {"T3", "X3"}, {"A1", "X7"}}
)

// feasible reports whether a quick run at this ratio is accepted. Quick
// graph has a 576 MiB footprint on a 384 MiB GPU: from 101% to 150% it
// "needs 384 MiB available but GPU only has 384 MiB" and is refused.
func feasible(workload string, ovsp int) bool {
	return !(workload == "graph" && ovsp > 100 && ovsp <= 150)
}

// quickGrid is every feasible quick single run.
func quickGrid() []simdOp {
	var g []simdOp
	for _, w := range simdWorkloads {
		for _, s := range simdSystems {
			for _, r := range simdRatios {
				if feasible(w, r) {
					g = append(g, simdOp{Kind: "run", Workload: w, System: s, Ovsp: r})
				}
			}
		}
	}
	return g
}

// A uvmsimd round, per client, is a seeded permutation of the whole quick
// grid and a fresh and a resumed run of every batch selection; every other
// round also holds one checkpointed FIR run, and client 0 scrapes /metrics
// once per round. The checkpointed run rotates through the UvmDiscard FIR
// points, so every simdRoundsPerSegment rounds hold exactly the same ops:
// the segments of a run, and runs of different seeds, carry the same load.
const (
	simdRoundsPerSegment = 2 * 5 // 5 UvmDiscard FIR points in the quick grid
	simdClients          = 2
)

// simdSegments is the fixed number of segments of a uvmsimd_runs run: a
// segment is about 1.3 s of work on a 2-core x86 box.
func simdSegments(seconds int) int { return max(2, seconds*3/4) }

// checkpointPoints are the quick grid's UvmDiscard FIR runs. Each snapshot
// is a file replaced by fsync and rename, and on a disk mounted with
// discard that churn slows every later run, so checkpointed runs are kept
// to under 1% of ops: in the mix, but neither setting op_ms_p99 nor
// carrying the disk's history from run to run.
func checkpointPoints() []simdOp {
	var ps []simdOp
	for _, op := range quickGrid() {
		if op.Workload == "fir" && op.System == "UvmDiscard" {
			ps = append(ps, op)
		}
	}
	return ps
}

// simdPlan returns each client's op list for a run of segs segments.
func simdPlan(seed uint64, segs int) [][]simdOp {
	grid := quickGrid()
	ckptPoints := checkpointPoints()
	plan := make([][]simdOp, simdClients)
	for c := range plan {
		r := rng(seed, uint64(c))
		ckptOff, batchOff := r.IntN(len(ckptPoints)), r.IntN(len(batchSelections))
		var ops []simdOp
		for i := 0; i < segs*simdRoundsPerSegment; i++ {
			round := append([]simdOp(nil), grid...)
			if i%2 == 0 {
				ckpt := ckptPoints[(ckptOff+i/2)%len(ckptPoints)]
				ckpt.Kind, ckpt.Name = "ckpt", fmt.Sprintf("c%d-k%d", c, i/2)
				round = append(round, ckpt)
			}
			for range batchSelections {
				round = append(round, simdOp{Kind: "batch"}, simdOp{Kind: "batch"})
			}
			if c == 0 {
				round = append(round, simdOp{Kind: "scrape"})
			}
			r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			// Batch slots alternate fresh, resume, fresh, ... so every
			// resume follows its own fresh run on the same client.
			slot := 0
			for j := range round {
				if round[j].Kind != "batch" {
					continue
				}
				pair := slot / 2
				round[j].Batch = batchSelections[(batchOff+pair)%len(batchSelections)]
				round[j].Name = fmt.Sprintf("c%d-b%d", c, i*len(batchSelections)+pair)
				if slot%2 == 1 {
					round[j].Kind = "resume"
				}
				slot++
			}
			ops = append(ops, round...)
		}
		plan[c] = ops
	}
	return plan
}

// fleetArtifacts are the cheap quick artifacts fleet jobs run, so the
// coordinator, HTTP and the journal fsyncs carry most of each op.
var fleetArtifacts = []string{"T1", "T2", "T3", "T4", "A1", "A2", "A3", "A4", "X1", "X2", "X3", "X4", "X7", "X10"}

// A fleet round is a seeded permutation of fleetPasses passes over
// fleetArtifacts and one /metrics scrape (""), so every round holds the same
// ops; the benchmark's worker heartbeats after the last op of each round.
const (
	fleetLoops            = 1
	fleetPasses           = 4
	fleetRoundLen         = fleetPasses*14 + 1 // 14 fleetArtifacts
	fleetRoundsPerSegment = 5
)

// A fleet_jobs run is fleetSessions sessions, each a fresh coordinator and
// fleetSessionSegments segments; a segment is about 0.5 s of work and a
// session about 8 s on a 2-core x86 box.
const fleetSessionSegments = 16

func fleetSessions(seconds int) int { return max(1, seconds/12) }

// fleetPlan returns each loop's op list for session k of segs segments.
func fleetPlan(seed uint64, k, segs int) [][]string {
	plan := make([][]string, fleetLoops)
	for l := range plan {
		r := rng(seed, 50+uint64(k)*fleetLoops+uint64(l))
		var ops []string
		for i := 0; i < segs*fleetRoundsPerSegment; i++ {
			round := []string{""}
			for p := 0; p < fleetPasses; p++ {
				round = append(round, fleetArtifacts...)
			}
			r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			ops = append(ops, round...)
		}
		plan[l] = ops
	}
	return plan
}
