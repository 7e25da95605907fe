package fleet

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
)

// The fleet chaos harness: an in-process coordinator and a pool of workers
// talking over real HTTP, with SIGKILL-equivalent worker kills at seeded
// random points mid-job and one coordinator crash/restart from its journal.
// The invariant under all of it: every submitted job completes exactly once
// with output byte-identical to a single-process experiments.RunAll of the
// same spec — no injected failure may lose, duplicate, or perturb a result.
//
// Determinism discipline: all randomness (job mix, kill times, crash time,
// per-job run repetition) derives from the harness seed via sim.RNG, so a
// failing seed replays with `make chaos-fleet FLEET_SEED=n`. Scheduling —
// which worker runs which attempt — is NOT deterministic, which is the
// point: the result invariant must hold under every interleaving.

var fleetSeed = flag.Uint64("fleet.seed", 0,
	"run the fleet chaos harness with this single seed instead of the built-in set (CI matrix knob)")

func TestChaosFleet(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	if *fleetSeed != 0 {
		seeds = []uint64{*fleetSeed}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosFleet(t, seed)
		})
	}
}

// chaosExperiments is the job mix: the four cheapest quick-mode artifacts,
// so a chaos run exercises many lease cycles in seconds, plus X10, the one
// artifact fleet jobs could once resume mid-run, so its kill-and-retry
// from zero must still reproduce the single-process bytes.
var chaosExperiments = []string{"T3", "T4", "T5", "T6", "X10"}

// referenceOutputs renders the single-process ground truth the fleet's
// results must match byte for byte.
func referenceOutputs(t *testing.T) map[string]string {
	t.Helper()
	var sel []experiments.Experiment
	for _, id := range chaosExperiments {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		sel = append(sel, e)
	}
	ref := make(map[string]string)
	for _, r := range experiments.RunAll(sel, experiments.Options{Quick: true}, nil, nil) {
		if r.Err != nil {
			t.Fatalf("reference run %s: %v", r.Experiment.ID, r.Err)
		}
		ref[r.Experiment.ID] = r.Table.String()
	}
	return ref
}

// chaosRunner stretches each job to a seeded number of back-to-back runs of
// the same experiment (asserting they agree), so jobs live long enough for
// kills to land mid-job and for checkpoint-driven lease renewals to flow,
// while the reported output stays exactly the single run's bytes.
func chaosRunner(seed uint64) RunnerFunc {
	return func(ctx context.Context, spec JobSpec, onControl func(*runctl.Control)) (string, error) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%s", spec.Tenant, spec.Experiment)
		repeats := 2 + sim.NewRNG(seed).Fork(h.Sum64()).Intn(3) // 2..4, same for every attempt of a spec
		var out string
		for i := 0; i < repeats; i++ {
			s, err := RunExperiment(ctx, spec, onControl)
			if err != nil {
				return "", err
			}
			if i == 0 {
				out = s
			} else if s != out {
				return "", fmt.Errorf("nondeterministic output for %s on repeat %d", spec.Experiment, i)
			}
		}
		return out, nil
	}
}

// coordServer runs a coordinator behind a real HTTP listener and can crash
// (connections severed, journal left on disk) and restart on the same
// address, exactly like a kill -9'd and re-exec'd uvmfleet.
type coordServer struct {
	t    *testing.T
	cfg  Config
	addr string

	mu    sync.Mutex
	coord *Coordinator
	hs    *http.Server
}

func startCoordServer(t *testing.T, cfg Config) *coordServer {
	t.Helper()
	cs := &coordServer{t: t, cfg: cfg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cs.addr = ln.Addr().String()
	cs.serve(ln)
	return cs
}

func (cs *coordServer) serve(ln net.Listener) {
	coord, err := New(cs.cfg)
	if err != nil {
		cs.t.Errorf("coordinator: %v", err)
		_ = ln.Close()
		return
	}
	hs := &http.Server{Handler: coord.Handler()}
	cs.mu.Lock()
	cs.coord = coord
	cs.hs = hs
	cs.mu.Unlock()
	go func() { _ = hs.Serve(ln) }()
}

func (cs *coordServer) url() string { return "http://" + cs.addr }

// crash severs every connection and drops all in-memory state. Only the
// journal survives — that is the contract being tested.
func (cs *coordServer) crash() {
	cs.mu.Lock()
	hs, coord := cs.hs, cs.coord
	cs.mu.Unlock()
	_ = hs.Close()
	_ = coord.Close()
}

// restart rebuilds the coordinator from its journal on the same address.
func (cs *coordServer) restart() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", cs.addr)
		if err == nil {
			cs.serve(ln)
			return
		}
		if time.Now().After(deadline) {
			cs.t.Errorf("rebind %s: %v", cs.addr, err)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (cs *coordServer) counters() Counters {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.coord.State().Counters
}

// dumpChaosArtifacts registers a cleanup that, when the test has failed and
// CHAOS_ARTIFACTS names a directory, writes the coordinator's counters and
// job table there. CI's chaos matrix uploads that directory on failure, so a
// red seed ships with the coordinator state needed to diagnose it.
func dumpChaosArtifacts(t *testing.T, cs *coordServer) {
	t.Cleanup(func() {
		dir := os.Getenv("CHAOS_ARTIFACTS")
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("chaos artifacts: %v", err)
			return
		}
		cs.mu.Lock()
		coord := cs.coord
		cs.mu.Unlock()
		var sum strings.Builder
		coord.mu.Lock()
		fmt.Fprintf(&sum, "counters: %+v\n", coord.ctr)
		ids := make([]string, 0, len(coord.jobs))
		for id := range coord.jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			j := coord.jobs[id]
			fmt.Fprintf(&sum, "job %s: state=%s attempt=%d worker=%q lastErr=%q\n",
				id, j.State, j.Attempt, j.Worker, j.LastErr)
		}
		coord.mu.Unlock()
		name := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".txt")
		if err := os.WriteFile(name, []byte(sum.String()), 0o644); err != nil {
			t.Logf("chaos artifacts: %v", err)
		}
		t.Logf("chaos artifacts for %s written under %s", t.Name(), dir)
	})
}

func runChaosFleet(t *testing.T, seed uint64) {
	rng := sim.NewRNG(seed)
	ref := referenceOutputs(t)

	dir := t.TempDir()
	cfg := Config{
		JournalPath:  dir + "/fleet.journal",
		LeaseTTL:     500 * time.Millisecond,
		MaxAttempts:  10,
		RetryBackoff: 25 * time.Millisecond,
		MaxBackoff:   200 * time.Millisecond,
		TenantQuota:  64,
	}
	if testing.Verbose() {
		cfg.Log = log.New(os.Stderr, fmt.Sprintf("coord[seed%d]: ", seed), log.Lmicroseconds)
	}
	cs := startCoordServer(t, cfg)
	defer cs.crash()
	dumpChaosArtifacts(t, cs)

	// The pool: w1 survives everything; w2 and w3 are killed at seeded
	// random points; w4 joins late, like an autoscaled replacement.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	startWorker := func(name string, capacity int) *Worker {
		w := NewWorker(WorkerConfig{
			Name:              name,
			Capacity:          capacity,
			PollInterval:      20 * time.Millisecond,
			HeartbeatInterval: 100 * time.Millisecond,
			Runner:            chaosRunner(seed),
			Log:               cfg.Log,
		}, NewClient(cs.url()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
		return w
	}
	startWorker("w1", 2)
	w2 := startWorker("w2", 1)
	w3 := startWorker("w3", 1)

	// Submit the job mix across two tenants.
	jobs := 10
	if testing.Short() {
		jobs = 6
	}
	client := NewClient(cs.url())
	tenants := []string{"alpha", "beta"}
	ids := make([]string, 0, jobs)
	specs := make(map[string]JobSpec)
	for i := 0; i < jobs; i++ {
		spec := JobSpec{
			Tenant:     tenants[i%len(tenants)],
			Experiment: chaosExperiments[rng.Intn(len(chaosExperiments))],
			Quick:      true,
		}
		st, err := client.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		specs[st.ID] = spec
	}

	// Seeded chaos schedule: two worker kills and one coordinator
	// crash/restart, all landing while jobs are in flight.
	killDelay1 := time.Duration(30+rng.Intn(220)) * time.Millisecond
	killDelay2 := time.Duration(100+rng.Intn(350)) * time.Millisecond
	crashDelay := time.Duration(80+rng.Intn(300)) * time.Millisecond
	downFor := time.Duration(50+rng.Intn(150)) * time.Millisecond
	t.Logf("seed %d: kill w2 @%v, kill w3 @%v, coordinator crash @%v for %v",
		seed, killDelay1, killDelay2, crashDelay, downFor)

	var chaosWG sync.WaitGroup
	chaosWG.Add(3)
	go func() {
		defer chaosWG.Done()
		time.Sleep(killDelay1)
		w2.Kill()
	}()
	go func() {
		defer chaosWG.Done()
		time.Sleep(killDelay2)
		w3.Kill()
	}()
	go func() {
		defer chaosWG.Done()
		time.Sleep(crashDelay)
		cs.crash()
		time.Sleep(downFor)
		cs.restart()
		// The replacement worker joins once the coordinator is back.
		startWorker("w4", 2)
	}()
	chaosWG.Wait()

	// Every job must reach done — nothing lost, nothing stuck.
	deadline := time.Now().Add(90 * time.Second)
	pending := append([]string(nil), ids...)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			for _, id := range pending {
				st, err := client.Job(context.Background(), id)
				t.Errorf("job %s never completed: %+v (err %v)", id, st, err)
			}
			t.Fatalf("timed out waiting for %d of %d jobs", len(pending), len(ids))
		}
		time.Sleep(25 * time.Millisecond)
		remaining := pending[:0]
		for _, id := range pending {
			st, err := client.Job(context.Background(), id)
			if err != nil {
				// Coordinator may be mid-restart; retry.
				remaining = append(remaining, id)
				continue
			}
			switch st.State {
			case JobDone:
			case JobFailed:
				t.Fatalf("job %s failed permanently after %d attempts: %s", id, st.Attempt, st.LastErr)
			default:
				remaining = append(remaining, id)
			}
		}
		pending = remaining
	}

	// Exactly once, byte-identical: the recorded output of every job equals
	// the single-process reference for its experiment, and no duplicate
	// report was ever absorbed with different bytes.
	for _, id := range ids {
		st, err := client.Job(context.Background(), id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		want := ref[specs[id].Experiment]
		if st.Output != want {
			t.Errorf("job %s (%s): output diverged from single-process run\ngot:\n%s\nwant:\n%s",
				id, specs[id].Experiment, st.Output, want)
		}
	}
	ctr := cs.counters()
	if ctr.Mismatches != 0 {
		t.Errorf("determinism violations detected: %d mismatched duplicate results", ctr.Mismatches)
	}
	t.Logf("seed %d: done=%d requeues=%d expired=%d duplicates=%d stale=%d orphaned=%d",
		seed, len(ids), ctr.Requeues, ctr.LeasesExpired, ctr.Duplicates, ctr.StaleReports, ctr.OrphanedLeases)

	cancel()
	wg.Wait()
}
