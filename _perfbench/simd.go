package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"uvmdiscard/internal/promexp"
)

// quickFIRSteps is the step count of a quick FIR run (512 MiB input in
// 64 MiB windows); a checkpointed run saves one snapshot per step.
const quickFIRSteps = 8

// simdClient is one closed-loop uvmsimd caller on its own connection.
type simdClient struct {
	base string
	hc   *http.Client
}

func newSimdClient(base string) *simdClient {
	return &simdClient{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// simdStatus is the job JSON uvmsimd reports.
type simdStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Output  string `json:"output"`
	Error   string `json:"error"`
	Resumed int    `json:"resumed"`
}

func (c *simdClient) submit(op simdOp) (string, error) {
	path := "/v1/runs"
	var body any
	switch op.Kind {
	case "run", "ckpt":
		body = map[string]any{"workload": op.Workload, "system": op.System, "ovsp": op.Ovsp, "quick": true, "checkpoint": op.Name}
	case "batch", "resume":
		path = "/v1/batches"
		body = map[string]any{"experiments": op.Batch, "quick": true, "parallelism": 1, "journal": op.Name}
	default:
		return "", fmt.Errorf("submit: op kind %q", op.Kind)
	}
	b, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st simdStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return st.ID, nil
}

// await follows the job's SSE progress stream to its "done" event, which
// fires on completion rather than on the stream's 50 ms ticker.
func (c *simdClient) await(id string) (simdStatus, error) {
	var st simdStatus
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/progress")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("progress: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return st, err
			}
			// Drain to EOF so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return st, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("progress stream of %s ended without a done event", id)
}

func (c *simdClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, err
}

// simdResult is what one op did: its latency and the bytes a scrape read.
type simdResult struct {
	lat     time.Duration
	scrapeB int
	ok      bool
	reason  string
}

// do runs one op and checks its output.
func (c *simdClient) do(e *env, tr *tracer, op simdOp, opID string) simdResult {
	s := time.Now()
	class := "simd." + op.Kind
	if op.Kind == "scrape" {
		b, err := c.get("/metrics")
		tr.end(class, opID, "", s)
		res := simdResult{lat: time.Since(s), scrapeB: len(b), ok: err == nil}
		if err != nil {
			res.reason = err.Error()
		} else if probs := promexp.CheckText(b); len(probs) > 0 {
			res.ok, res.reason = false, "scrape: "+probs[0]
		}
		return res
	}
	ss := tr.start()
	id, err := c.submit(op)
	tr.end("service.submit", opID, class, ss)
	var st simdStatus
	if err == nil {
		as := tr.start()
		st, err = c.await(id)
		tr.end("service.await", opID, class, as)
	}
	tr.end(class, opID, "", s)
	res := simdResult{lat: time.Since(s)}
	switch {
	case err != nil:
		res.reason = err.Error()
	case st.State != "done":
		res.reason = fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error)
	case op.Kind == "batch" && st.Resumed != 0:
		res.reason = fmt.Sprintf("fresh batch %s resumed %d results", op.Name, st.Resumed)
	case op.Kind == "resume" && st.Resumed != len(op.Batch):
		res.reason = fmt.Sprintf("re-submitted batch %s resumed %d of %d results", op.Name, st.Resumed, len(op.Batch))
	case !e.checkOutput(op.goldenKey(), st.Output):
		res.reason = fmt.Sprintf("%s %s: output differs from golden %s", op.Kind, op.Name, op.goldenKey())
	default:
		res.ok = true
	}
	if !res.ok {
		res.reason = fmt.Sprintf("%+v: %s", op, res.reason)
	}
	return res
}

// simdWarmup is one untimed op of every class.
var simdWarmup = []simdOp{
	{Kind: "run", Workload: "fir", System: "UVM-opt", Ovsp: 0},
	{Kind: "ckpt", Workload: "fir", System: "UvmDiscard", Ovsp: 200, Name: "warm-k"},
	{Kind: "batch", Batch: batchSelections[0], Name: "warm-b"},
	{Kind: "resume", Batch: batchSelections[0], Name: "warm-b"},
	{Kind: "scrape"},
}

// startSimd launches a fresh uvmsimd with fresh data and journal
// directories and runs the warm-up ops: the set-up a user pays.
func startSimd(e *env, i int) (*daemon, *simdClient, time.Duration, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("uvmsimd-%d", i))
	if err := freshDir(dir); err != nil {
		return nil, nil, 0, err
	}
	s := time.Now()
	d, err := startDaemon(filepath.Join(e.bin, "uvmsimd"), filepath.Join(dir, "uvmsimd.log"),
		"-addr", "127.0.0.1:0", "-workers", "1",
		"-data-dir", filepath.Join(dir, "data"), "-journal-dir", filepath.Join(dir, "journal"))
	if err != nil {
		return nil, nil, 0, err
	}
	c := newSimdClient(d.addr)
	for _, op := range simdWarmup {
		r := c.do(e, nil, op, "warmup")
		e.tally.add(r.ok, "uvmsimd warm-up: "+r.reason)
	}
	return d, c, time.Since(s), nil
}

// runSimd is uvmsimd_runs: two closed-loop clients against a fresh
// uvmsimd -workers 1.
func runSimd(e *env, tr *tracer, layer map[string]float64) (e2e, error) {
	var r e2e
	var d *daemon
	var c0 *simdClient
	for i := 0; i < e.setups; i++ {
		var took time.Duration
		var err error
		if d, c0, took, err = startSimd(e, i); err != nil {
			return r, err
		}
		r.setupS = append(r.setupS, took.Seconds())
		if i < e.setups-1 {
			d.stop()
		}
	}
	defer d.stop()

	segs := simdSegments(e.seconds)
	plan := simdPlan(e.seed, segs)
	var before promText
	if tr != nil {
		b, err := c0.get("/metrics")
		if err != nil {
			return r, err
		}
		before = parseProm(b)
	}
	clients := make([]*simdClient, len(plan))
	results := make([][]simdResult, len(plan))
	n := make([]int, len(plan))
	for ci := range plan {
		clients[ci] = c0
		if ci > 0 {
			clients[ci] = newSimdClient(d.addr)
		}
		results[ci] = make([]simdResult, len(plan[ci]))
		n[ci] = len(plan[ci])
	}
	cal := e.startCal()
	r.opsPerSec = median(closedLoop(n, segs, cal, func(ci, i int) {
		results[ci][i] = clients[ci].do(e, tr, plan[ci][i], fmt.Sprintf("c%d/%d", ci, i))
	}))
	r.calMS = median(cal.samplesMS)

	jobsOK, ckptOps, runOps := 0, 0, 0
	var scrapeB []float64
	var jobLatMS []float64
	for ci, ops := range plan {
		for i, op := range ops {
			res := results[ci][i]
			e.tally.add(res.ok, res.reason)
			r.latMS = append(r.latMS, ms(res.lat))
			switch op.Kind {
			case "scrape":
				scrapeB = append(scrapeB, float64(res.scrapeB))
				continue
			case "ckpt":
				ckptOps++
				runOps++
			case "run":
				runOps++
			}
			jobLatMS = append(jobLatMS, ms(res.lat))
			if res.ok {
				jobsOK++
			}
		}
	}
	var err error
	if r.rssMB, err = d.peakRSSMB(); err != nil {
		return r, err
	}
	if layer == nil {
		return r, nil
	}

	b, err := c0.get("/metrics")
	if err != nil {
		return r, err
	}
	after := parseProm(b)
	delta := func(name, labels string) float64 { return after.sum(name, labels) - before.sum(name, labels) }
	runMS := 1000 * delta("uvmsimd_job_duration_seconds_sum", "") / delta("uvmsimd_job_duration_seconds_count", "")
	layer["service.submit_ms"] = median(tr.durMS("service.submit"))
	layer["service.run_ms"] = runMS
	layer["service.overhead_ms"] = mean(jobLatMS) - runMS
	layer["service.quick_ms_p50"] = median(tr.durMS("simd.run"))
	layer["checkpoint.fir_ms_p50"] = median(tr.durMS("simd.ckpt"))
	layer["experiments.batch_ms_p50"] = median(tr.durMS("simd.batch"))
	layer["experiments.resume_ms_p50"] = median(tr.durMS("simd.resume"))
	layer["service.scrape_ms"] = median(tr.durMS("simd.scrape"))
	layer["service.scrape_KB"] = mean(scrapeB) / 1e3
	layer["checkpoint.saves_per_op"] = delta("uvmsimd_checkpoints_saved_total", "") / float64(ckptOps)
	layer["sim.transfer_GB_per_op"] = delta("uvmsim_transfer_bytes_total", "") / 1e9 / float64(runOps)
	layer["sim.faulted_blocks_per_op"] = delta("uvmsim_faulted_blocks_total", "") / float64(runOps)
	layer["sim.saved_GB_per_op"] = delta("uvmsim_discard_saved_bytes_total", "") / 1e9 / float64(runOps)

	// Reconciliation: the daemon's counters must agree with what the
	// clients saw.
	finished := delta("uvmsimd_jobs_finished_total", `outcome="done"`)
	layer["service.recon_finished_gap"] = finished - float64(jobsOK)
	finding(finished != float64(jobsOK), "uvmsimd_runs: uvmsimd_jobs_finished_total{outcome=\"done\"} moved by %.0f, clients completed %d jobs", finished, jobsOK)
	saves := delta("uvmsimd_checkpoints_saved_total", "")
	layer["checkpoint.recon_saves_gap"] = saves - float64(quickFIRSteps*ckptOps)
	finding(saves != float64(quickFIRSteps*ckptOps), "uvmsimd_runs: uvmsimd_checkpoints_saved_total moved by %.0f, want %d steps x %d checkpointed runs", saves, quickFIRSteps, ckptOps)
	return r, nil
}

// promText is a parsed Prometheus text exposition: sample lines as
// name{labels} -> value.
type promText []promSample

type promSample struct {
	name, labels string
	value        float64
}

func parseProm(b []byte) promText {
	var out promText
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		out = append(out, promSample{name, labels, v})
	}
	return out
}

// sum adds every sample of name whose label set contains labels.
func (p promText) sum(name, labels string) float64 {
	var s float64
	for _, x := range p {
		if x.name == name && strings.Contains(x.labels, labels) {
			s += x.value
		}
	}
	return s
}
