package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"uvmdiscard/internal/experiments"
)

// TestPlansDeterministic: the same seed gives the same ops, another seed
// another order, and every seed the same count of each op class.
func TestPlansDeterministic(t *testing.T) {
	const segs = 3
	if !reflect.DeepEqual(simdPlan(7, segs), simdPlan(7, segs)) {
		t.Fatal("simdPlan(7) differs between calls")
	}
	if reflect.DeepEqual(simdPlan(7, segs), simdPlan(8, segs)) {
		t.Fatal("simdPlan ignores the seed")
	}
	if !reflect.DeepEqual(fleetPlan(7, 0, segs), fleetPlan(7, 0, segs)) {
		t.Fatal("fleetPlan(7) differs between calls")
	}
	if reflect.DeepEqual(fleetPlan(7, 0, segs), fleetPlan(8, 0, segs)) {
		t.Fatal("fleetPlan ignores the seed")
	}
	if reflect.DeepEqual(fleetPlan(7, 0, segs), fleetPlan(7, 1, segs)) {
		t.Fatal("fleetPlan gives every session the same order")
	}
	if !reflect.DeepEqual(ids(paperOrder(7, 0)), ids(paperOrder(7, 0))) {
		t.Fatal("paperOrder(7) differs between calls")
	}
	if reflect.DeepEqual(ids(paperOrder(7, 0)), ids(paperOrder(7, 1))) {
		t.Fatal("paperOrder gives every pass the same order")
	}

	want := classCounts(simdPlan(1, segs))
	for seed := uint64(2); seed < 20; seed++ {
		if got := classCounts(simdPlan(seed, segs)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: uvmsimd op classes %v, seed 1 has %v", seed, got, want)
		}
		all := map[string]bool{}
		for _, x := range paperOrder(seed, 0) {
			all[x.ID] = true
		}
		if len(all) != len(experiments.All()) {
			t.Fatalf("seed %d: a pass holds %d distinct artifacts, want %d", seed, len(all), len(experiments.All()))
		}
	}
}

// TestPlansFeasible: the generators emit only ops the system accepts.
func TestPlansFeasible(t *testing.T) {
	if fleetLoops >= 64 {
		t.Fatalf("%d fleet jobs can be in flight; the tenant quota is 64", fleetLoops)
	}
	for seed := uint64(1); seed < 20; seed++ {
		for c, ops := range simdPlan(seed, 4) {
			fresh := map[string]simdOp{}
			for i, op := range ops {
				switch op.Kind {
				case "run", "ckpt":
					if !feasible(op.Workload, op.Ovsp) {
						t.Fatalf("seed %d client %d op %d: infeasible %+v", seed, c, i, op)
					}
				case "batch":
					if _, dup := fresh[op.Name]; dup {
						t.Fatalf("seed %d client %d: journal %s is fresh twice", seed, c, op.Name)
					}
					fresh[op.Name] = op
				case "resume":
					f, ok := fresh[op.Name]
					if !ok || !reflect.DeepEqual(f.Batch, op.Batch) {
						t.Fatalf("seed %d client %d op %d: resume %+v without its fresh run", seed, c, i, op)
					}
				}
			}
		}
	}
}

// TestEveryOpSucceeds runs every distinct op once, including the variants
// whose output must equal another op's, against freshly built daemons, and
// checks each output against golden.json.
func TestEveryOpSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper artifact at full size and both daemons")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "uvmdiscard/cmd/uvmsimd", "uvmdiscard/cmd/uvmfleet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	g, err := readGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{bin: bin, work: filepath.Join(t.TempDir(), "run"), golden: g, setups: 1}
	if err := freshDir(e.work); err != nil {
		t.Fatal(err)
	}
	err = everyOp(e, true)
	stopAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range e.tally.reasons {
		t.Error(r)
	}
	if e.tally.failed > 0 || e.tally.attempted == 0 {
		t.Fatalf("%d of %d ops failed", e.tally.failed, e.tally.attempted)
	}
}

func ids(xs []experiments.Experiment) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.ID
	}
	return out
}

func classCounts(plan [][]simdOp) map[string]int {
	n := map[string]int{}
	for _, ops := range plan {
		for _, op := range ops {
			n[op.Kind]++
		}
	}
	return n
}

// TestSegmentsBalanced: every segment of a run holds the same ops, so
// segment rates and runs of different seeds compare like with like.
func TestSegmentsBalanced(t *testing.T) {
	if want := len(fleetArtifacts)*fleetPasses + 1; fleetRoundLen != want {
		t.Fatalf("fleetRoundLen %d, want %d", fleetRoundLen, want)
	}
	if n := len(checkpointPoints()); simdRoundsPerSegment != 2*n {
		t.Fatalf("simdRoundsPerSegment %d, want two rounds per checkpointed point (%d)", simdRoundsPerSegment, 2*n)
	}
	const segs = 4
	for seed := uint64(1); seed < 6; seed++ {
		for c, ops := range simdPlan(seed, segs) {
			segmentsEqual(t, fmt.Sprintf("seed %d uvmsimd client %d", seed, c), len(ops), segs, func(i int) string {
				op := ops[i]
				return op.Kind + " " + op.goldenKey()
			})
		}
		for l, ops := range fleetPlan(seed, 1, segs) {
			if len(ops) != segs*fleetRoundsPerSegment*fleetRoundLen {
				t.Fatalf("seed %d fleet loop %d: %d ops, want %d", seed, l, len(ops), segs*fleetRoundsPerSegment*fleetRoundLen)
			}
			segmentsEqual(t, fmt.Sprintf("seed %d fleet loop %d", seed, l), len(ops), segs, func(i int) string { return ops[i] })
		}
	}
}

func segmentsEqual(t *testing.T, what string, n, segs int, key func(i int) string) {
	t.Helper()
	if n%segs != 0 {
		t.Fatalf("%s: %d ops do not split into %d segments", what, n, segs)
	}
	var first map[string]int
	for s := 0; s < segs; s++ {
		got := map[string]int{}
		for i := s * n / segs; i < (s+1)*n/segs; i++ {
			got[key(i)]++
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Fatalf("%s: segment %d holds other ops than segment 0", what, s)
		}
	}
}
