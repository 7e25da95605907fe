package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/promexp"
)

// TestSmokeFleet is the fleet's end-to-end acceptance smoke against the real
// binaries: one uvmfleet coordinator, two uvmsimd -worker processes, a batch
// of jobs across two tenants — then SIGKILL one worker mid-run. Every job
// must still complete, byte-identical to an in-process run, the killed
// worker must be detected dead, and GET /metrics must serve a valid
// Prometheus exposition carrying the fleet families.

// smokeJobs is the job mix: cheap quick-mode experiments, repeated into a
// batch deep enough that both workers cycle many leases before the queue
// drains — the window the worker kill must land in.
var smokeJobs = func() []string {
	base := []string{"T3", "T4", "T5", "T6"}
	jobs := make([]string, 0, 40)
	for len(jobs) < 40 {
		jobs = append(jobs, base...)
	}
	return jobs
}()

func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startProc launches a binary and scans its stdout for the banner prefix,
// returning the remainder of the banner line (the listen address for the
// coordinator, the worker name for workers).
func startProc(t *testing.T, banner string, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), banner); ok {
			go func() { // keep draining stdout so the child never blocks
				for sc.Scan() {
				}
			}()
			return cmd, strings.TrimSpace(rest)
		}
	}
	t.Fatalf("%s exited before printing %q (scan err: %v)", bin, banner, sc.Err())
	return nil, ""
}

type fleetJob struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Attempt int    `json:"attempt"`
	Worker  string `json:"worker"`
	Output  string `json:"output"`
	LastErr string `json:"last_error"`
	Spec    struct {
		Experiment string `json:"experiment"`
	} `json:"spec"`
}

func submitJob(t *testing.T, base, tenant, experiment string) fleetJob {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "experiment": experiment, "quick": true})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js fleetJob
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit %s: %d (%+v)", experiment, resp.StatusCode, js)
	}
	return js
}

func getJob(t *testing.T, base, id string) fleetJob {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js fleetJob
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

// workerActive reads a worker's active lease count from GET /v1/fleet.
func workerActive(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Workers []struct {
			Name   string `json:"name"`
			Active int    `json:"active_leases"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, w := range st.Workers {
		if w.Name == name {
			return w.Active
		}
	}
	return 0
}

// smokeReference renders the ground truth each experiment's fleet output
// must match byte for byte.
func smokeReference(t *testing.T) map[string]string {
	t.Helper()
	var sel []experiments.Experiment
	seen := map[string]bool{}
	for _, id := range smokeJobs {
		if seen[id] {
			continue
		}
		seen[id] = true
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
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

func TestSmokeFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	fleetBin := buildBinary(t, "uvmdiscard/cmd/uvmfleet")
	simdBin := buildBinary(t, "uvmdiscard/cmd/uvmsimd")
	ref := smokeReference(t)

	journal := filepath.Join(t.TempDir(), "fleet.journal")
	_, addr := startProc(t, "uvmfleet listening on ", fleetBin,
		"-addr", "127.0.0.1:0",
		"-journal", journal,
		"-lease-ttl", "1s",
		"-retry-backoff", "50ms",
		"-max-attempts", "10",
	)
	base := "http://" + addr

	startWorker := func(name string) *exec.Cmd {
		cmd, got := startProc(t, "uvmsimd worker ", simdBin,
			"-worker",
			"-coordinator", base,
			"-worker-name", name,
			"-capacity", "1",
		)
		if !strings.HasPrefix(got, name+" ") {
			t.Fatalf("worker banner %q does not carry name %s", got, name)
		}
		return cmd
	}
	startWorker("smoke-w1")
	w2 := startWorker("smoke-w2")

	ids := make([]string, 0, len(smokeJobs))
	tenants := []string{"alpha", "beta"}
	for i, exp := range smokeJobs {
		js := submitJob(t, base, tenants[i%len(tenants)], exp)
		ids = append(ids, js.ID)
	}

	// SIGKILL one worker the moment it is observed holding a lease, so the
	// kill strands in-flight work: the lease must expire and the job must
	// finish on the survivor.
	leaseSeen := false
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		if workerActive(t, base, "smoke-w2") > 0 {
			leaseSeen = true
			break
		}
	}
	if err := w2.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = w2.Process.Wait()
	t.Logf("killed smoke-w2 (holding a lease: %v)", leaseSeen)
	if !leaseSeen {
		t.Errorf("smoke-w2 never held a lease before the batch drained; kill landed on an idle worker")
	}

	deadline := time.Now().Add(3 * time.Minute)
	pending := append([]string(nil), ids...)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			for _, id := range pending {
				t.Errorf("job %s never completed: %+v", id, getJob(t, base, id))
			}
			t.Fatalf("timed out waiting for %d of %d jobs", len(pending), len(ids))
		}
		time.Sleep(50 * time.Millisecond)
		remaining := pending[:0]
		for _, id := range pending {
			js := getJob(t, base, id)
			switch js.State {
			case "done":
			case "failed":
				t.Fatalf("job %s failed permanently: %s", id, js.LastErr)
			default:
				remaining = append(remaining, id)
			}
		}
		pending = remaining
	}

	// Every result must match the in-process reference byte for byte. Jobs
	// the killed worker finished before the SIGKILL are legitimately its;
	// the survivor must have carried the rest.
	survivorJobs := 0
	for _, id := range ids {
		js := getJob(t, base, id)
		if want := ref[js.Spec.Experiment]; js.Output != want {
			t.Errorf("job %s (%s): output diverged from in-process run\ngot:\n%s\nwant:\n%s",
				id, js.Spec.Experiment, js.Output, want)
		}
		if js.Worker == "smoke-w1" {
			survivorJobs++
		}
	}
	if survivorJobs == 0 {
		t.Errorf("surviving worker completed no jobs; the pool did not share the batch")
	}

	// The killed worker must be reported dead once its heartbeats lapse
	// (heartbeat timeout defaults to 3×TTL = 3s here).
	dead := false
	for end := time.Now().Add(15 * time.Second); time.Now().Before(end); time.Sleep(200 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Workers []struct {
				Name string `json:"name"`
				Live bool   `json:"live"`
			} `json:"workers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range st.Workers {
			if w.Name == "smoke-w2" && !w.Live {
				dead = true
			}
		}
		if dead {
			break
		}
	}
	if !dead {
		t.Errorf("killed worker smoke-w2 never marked dead in /v1/fleet")
	}

	// The exposition must validate (the same checker `uvmlint -expfmt`
	// applies in CI) and carry the fleet families.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if problems := promexp.CheckText(scrape); len(problems) != 0 {
		t.Errorf("GET /metrics fails the exposition checker:\n%s", strings.Join(problems, "\n"))
	}
	for _, family := range []string{
		"uvmfleet_workers",
		"uvmfleet_jobs",
		"uvmfleet_jobs_submitted_total",
		"uvmfleet_leases_granted_total",
		"uvmfleet_requeues_total",
		"uvmfleet_completion_reports_total",
		"uvmfleet_workers_died_total",
	} {
		if !bytes.Contains(scrape, []byte(family)) {
			t.Errorf("scrape missing fleet family %s", family)
		}
	}
	if !bytes.Contains(scrape, []byte(`verdict="recorded"`)) {
		t.Errorf("scrape missing completion verdict label")
	}
	if fams := fmt.Sprintf("%s", scrape); !strings.Contains(fams, `state="dead"`) {
		t.Errorf("scrape does not report the dead worker")
	}
}
