package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmdiscard/internal/experiments"
)

// smokeExperiments is the batch the kill/resume smoke runs: four quick-mode
// table experiments, long enough in aggregate that a kill usually lands
// mid-batch, short enough for CI.
var smokeExperiments = []string{"T3", "T4", "T5", "T6"}

// daemon is one uvmsimd process started by the smoke harness.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://addr
}

func buildUvmsimd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "uvmsimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches uvmsimd on an ephemeral port and parses the listen
// address from its banner line.
func startDaemon(t *testing.T, bin, journalDir string, extraArgs ...string) *daemon {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0",
		"-journal-dir", journalDir,
		"-workers", "1",
		"-wall-budget", "5m",
	}
	args = append(args, extraArgs...)
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
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "uvmsimd listening on "); ok {
			go func() { // keep draining stdout so the child never blocks
				for sc.Scan() {
				}
			}()
			return &daemon{cmd: cmd, base: "http://" + strings.TrimSpace(rest)}
		}
	}
	t.Fatalf("uvmsimd exited before printing its listen address (scan err: %v)", sc.Err())
	return nil
}

type smokeJob struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Output  string `json:"output"`
	Error   string `json:"error"`
	Resumed int    `json:"resumed"`
}

func (d *daemon) submitBatch(t *testing.T, journal string) smokeJob {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"experiments": smokeExperiments,
		"quick":       true,
		// Not a BatchRequest field: older clients send it, and the
		// daemon must still accept their batches.
		"parallelism": 1,
		"journal":     journal,
	})
	resp, err := http.Post(d.base+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js smokeJob
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit batch: %d (%+v)", resp.StatusCode, js)
	}
	return js
}

func (d *daemon) waitDone(t *testing.T, id string, timeout time.Duration) smokeJob {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last smokeJob
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&last)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch last.State {
		case "done":
			return last
		case "failed", "canceled", "deadline_expired", "budget_expired", "shed":
			t.Fatalf("batch ended %s: %+v", last.State, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("batch %s never finished (last: %+v)", id, last)
	return smokeJob{}
}

// journalLines counts complete (newline-terminated) records in the journal.
func journalLines(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		n-- // torn tail is not a complete record
	}
	return n
}

// renderReference runs the same selection in-process, sequentially and
// uninterrupted, and renders it exactly as the service does: completed
// tables in selection order, one blank line after each.
func renderReference(t *testing.T) string {
	t.Helper()
	var sel []experiments.Experiment
	for _, id := range smokeExperiments {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		sel = append(sel, e)
	}
	var out strings.Builder
	for _, r := range experiments.RunAll(sel, experiments.Options{Quick: true}, nil, nil) {
		if r.Err != nil {
			t.Fatalf("reference run %s: %v", r.Experiment.ID, r.Err)
		}
		out.WriteString(r.Table.String())
		out.WriteByte('\n')
	}
	return out.String()
}

// TestSmokeKillResume is the crash-safety acceptance test: a journaled batch
// whose process is killed with SIGKILL mid-batch must, on restart and
// resubmission, resume from the journal and render output byte-identical to
// an uninterrupted sequential run.
func TestSmokeKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := buildUvmsimd(t)
	journalDir := t.TempDir()
	journalPath := filepath.Join(journalDir, "smoke.jsonl")

	// Phase 1: start the service, submit the batch, and SIGKILL the process
	// as soon as the journal holds at least one complete record.
	d1 := startDaemon(t, bin, journalDir)
	d1.submitBatch(t, "smoke")
	killDeadline := time.Now().Add(3 * time.Minute)
	for journalLines(journalPath) < 1 {
		if time.Now().After(killDeadline) {
			t.Fatalf("journal %s never gained a complete record", journalPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync help
		t.Fatal(err)
	}
	_, _ = d1.cmd.Process.Wait()
	preKill := journalLines(journalPath)
	t.Logf("killed uvmsimd with %d/%d experiments journaled", preKill, len(smokeExperiments))

	// Phase 2: restart and resubmit the identical batch. Completed
	// experiments must be served from the journal, not re-run.
	d2 := startDaemon(t, bin, journalDir)
	job := d2.submitBatch(t, "smoke")
	final := d2.waitDone(t, job.ID, 5*time.Minute)
	if final.Resumed < 1 {
		t.Errorf("resumed = %d, want >= 1 (journal had %d records at kill)", final.Resumed, preKill)
	}
	if final.Resumed < preKill {
		t.Errorf("resumed = %d < %d records journaled before the kill", final.Resumed, preKill)
	}

	want := renderReference(t)
	if final.Output != want {
		t.Errorf("resumed batch output is not byte-identical to an uninterrupted run\n--- got ---\n%s\n--- want ---\n%s", final.Output, want)
	}

	// The resumed journal is complete: a third submission resumes everything.
	job3 := d2.submitBatch(t, "smoke")
	final3 := d2.waitDone(t, job3.ID, time.Minute)
	if final3.Resumed != len(smokeExperiments) {
		t.Errorf("third submission resumed %d, want all %d", final3.Resumed, len(smokeExperiments))
	}
	if final3.Output != want {
		t.Errorf("fully-resumed output differs from reference")
	}
}
