// Command perfbench is the repository benchmark: it drives the simulator
// from outside, through the entry points users call, and prints one JSON
// result line.
//
// Workloads:
//
//	paper_full    every paper artifact at full size, serially (what `make repro` waits for)
//	uvmsimd_runs  a real uvmsimd daemon under two closed-loop HTTP clients
//	fleet_jobs    a real uvmfleet coordinator, with the benchmark as tenant and worker
//
// With -trace 0 a run reports the end-to-end metrics of BENCHMARK.json for
// one workload, its times scaled to the calibration kernel's nominal speed
// (calib.go). With -trace 1 it reports the per-layer metrics: every
// workload runs once, at half length, with spans around the benchmark's
// calls into each layer, the daemons' counters are scraped before and
// after, the layer ladder runs once, and the named workload also runs
// untraced to give the tracing overhead.
//
// Build everything first with run.sh; see README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloadNames lists the workloads.
var workloadNames = []string{"paper_full", "uvmsimd_runs", "fleet_jobs"}

// env is what every workload needs: the seed, the run length, where the
// daemons live, and the golden digests their outputs are checked against.
type env struct {
	seed    uint64
	seconds int
	bin     string // built uvmsimd and uvmfleet
	work    string // fresh scratch directory of this run, on the repo's disk
	golden  map[string]string
	setups  int // set-ups per run; setup_s is their median
	tally   tally
	cal     *calibrator

	// record, when non-nil, collects output digests instead of checking
	// them (golden regeneration).
	record   map[string]string
	recordMu sync.Mutex
}

// startCal returns the calibration kernel with no samples yet; the kernel
// is built once per process.
func (e *env) startCal() *calibrator {
	if e.cal == nil {
		e.cal = newCalibrator()
	}
	e.cal.samplesMS = nil
	return e.cal
}

// tally counts attempted and failed ops; a failure keeps its reason for the
// log (the first few only).
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) add(ok bool, reason string) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, reason)
		}
	}
}

// e2e is what one untraced workload run measured. Times and rates are raw;
// metrics scales them to the calibration kernel's nominal speed.
type e2e struct {
	opsPerSec float64
	latMS     []float64 // one entry per op
	setupS    []float64 // one entry per set-up
	rssMB     float64
	calMS     float64 // median calibration sample over the timed ops
}

// closedLoop runs n[c] ops on each client c, in order, through do(c, i),
// and returns the ops completed per second of each segment. The ops are cut
// into segs segments separated by a barrier, and between segments, outside
// their timing, the kernel is sampled: a burst of interference from outside
// the benchmark skews a segment, not the run. The generators make every
// segment hold the same ops.
func closedLoop(n []int, segs int, cal *calibrator, do func(c, i int)) []float64 {
	rates := make([]float64, segs)
	for s := 0; s < segs; s++ {
		ops := 0
		start := time.Now()
		var wg sync.WaitGroup
		for c := range n {
			lo, hi := n[c]*s/segs, n[c]*(s+1)/segs
			ops += hi - lo
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					do(c, i)
				}
			}(c, lo, hi)
		}
		wg.Wait()
		rates[s] = float64(ops) / time.Since(start).Seconds()
		cal.sample(calPerSegment)
	}
	return rates
}

// calPerSegment is how many kernel samples follow each closed-loop
// segment: about one per calEveryMS of fleet_jobs work.
const calPerSegment = 4

// slowdown is how much slower than nominal the host ran the program: the
// kernel's slowdown to the power calElasticity.
func (r e2e) slowdown() float64 { return math.Pow(r.calMS/calNominalMS, calElasticity) }

// rate is ops per second at the kernel's nominal speed.
func (r e2e) rate() float64 { return r.opsPerSec * r.slowdown() }

func (r e2e) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":   median(r.setupS) / r.slowdown(),
		"ops_per_s": r.rate(),
		"op_ms_p50": quantile(r.latMS, 0.50) / r.slowdown(),
		"op_ms_p99": quantile(r.latMS, 0.99) / r.slowdown(),
		"rss_MB":    r.rssMB,
	}
}

// workload runs one workload. A nil tracer is an untraced run; a traced
// run also fills layer with per-layer metrics.
type workload func(e *env, tr *tracer, layer map[string]float64) (e2e, error)

var runners = map[string]workload{
	"paper_full":   runPaper,
	"uvmsimd_runs": runSimd,
	"fleet_jobs":   runFleet,
}

// Paths relative to the repository root, where run.sh starts the benchmark.
const (
	buildDir   = ".bench_build" // bin/ holds the built daemons; run/ and traces/ are written here
	specPath   = "BENCHMARK.json"
	goldenPath = "_perfbench/golden.json"
)

func main() {
	var (
		name    = flag.String("workload", "", "paper_full | uvmsimd_runs | fleet_jobs")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same ops")
		seconds = flag.Int("seconds", 20, "nominal run length; sets the fixed op count")
		traced  = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		regen   = flag.Bool("regen-golden", false, "run every distinct op once and rewrite the golden digests")
	)
	flag.Parse()
	code := run(*name, *seed, *seconds, *traced == 1, *regen)
	stopAll()
	os.Exit(code)
}

func run(name string, seed uint64, seconds int, traced, regen bool) int {
	e := &env{seed: seed, seconds: seconds, bin: filepath.Join(buildDir, "bin"), work: filepath.Join(buildDir, "run"), setups: 21}
	if err := freshDir(e.work); err != nil {
		return fail(err)
	}
	if regen {
		g, err := goldenDigests(e)
		if err != nil {
			return fail(err)
		}
		if err := writeGolden(goldenPath, g); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d digests to %s\n", len(g), goldenPath)
		return 0
	}
	if _, ok := runners[name]; !ok {
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", ")))
	}
	if seconds < 1 {
		return fail(fmt.Errorf("-seconds must be >= 1"))
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	if e.golden, err = readGolden(goldenPath); err != nil {
		return fail(err)
	}

	var got map[string]float64
	if traced {
		got, err = tracedRun(e, name, filepath.Join(buildDir, "traces"))
	} else {
		var r e2e
		if r, err = runners[name](e, nil, nil); err == nil {
			got = r.metrics()
			fmt.Fprintf(os.Stderr, "perfbench: calibration kernel median %.4f ms over %d samples (nominal %.1f ms)\n", r.calMS, len(e.cal.samplesMS), calNominalMS)
		}
	}
	if err != nil {
		return fail(err)
	}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	out, err := resultLine(e.tally, got, want)
	if err != nil {
		return fail(err)
	}
	for _, r := range e.tally.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: failed op: %s\n", r)
	}
	fmt.Println(out)
	return 0
}

// tracedRun runs every workload traced and the layer ladder, plus the named
// workload untraced for the tracing overhead. Spans go to traceDir.
func tracedRun(e *env, primary, traceDir string) (map[string]float64, error) {
	// Four workload runs and the ladder must fit one run's time limit, so
	// each is half as long as an untraced run.
	e.setups, e.seconds = 1, max(1, e.seconds/2)
	layer := map[string]float64{}
	plain, err := runners[primary](e, nil, nil)
	if err != nil {
		return nil, err
	}
	// The primary workload runs traced right after its untraced run, so the
	// overhead compares like with like.
	order := []string{primary}
	for _, w := range workloadNames {
		if w != primary {
			order = append(order, w)
		}
	}
	tr := newTracer()
	for _, w := range order {
		r, err := runners[w](e, tr, layer)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w, err)
		}
		if w == primary {
			layer["trace.overhead_pct"] = 100 * (plain.rate() - r.rate()) / plain.rate()
			layer["host.cal_ms"] = plain.calMS
		}
	}
	if err := runLadder(e, tr, layer); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", primary, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s\n", len(tr.spans), path)
	return layer, nil
}

// metricSpec mirrors one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

// resultLine renders the final JSON object. It insists on exactly the
// metrics the spec lists, so BENCHMARK.json and the code cannot drift.
func resultLine(t tally, got map[string]float64, want []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		ms[m.Name] = value{Value: v, Unit: m.Unit}
	}
	var extra []string
	for k := range got {
		if _, ok := ms[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("measured metrics missing from the spec: %s", strings.Join(extra, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, ms})
	return string(b), err
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}

func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// median and quantile interpolate linearly between closest ranks.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
