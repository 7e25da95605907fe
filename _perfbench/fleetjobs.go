package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"uvmdiscard/internal/fleet"
	"uvmdiscard/internal/promexp"
)

const (
	fleetTenant = "perfbench"
	fleetWorker = "perfbench-worker"
)

// fleetSession is one fresh coordinator with the benchmark registered as
// its only worker.
type fleetSession struct {
	d       *daemon
	c       *fleet.Client
	journal string
}

// fleetResult is what one op did.
type fleetResult struct {
	lat    time.Duration
	ok     bool
	reason string
}

// job is one fleet op: Submit -> Lease -> RunExperiment -> Complete -> Job.
// The benchmark is tenant and worker; no uvmsimd -worker (and its 250 ms
// idle poll) sits on the path.
func (f *fleetSession) job(ctx context.Context, e *env, tr *tracer, id, opID string) fleetResult {
	s := time.Now()
	res := fleetResult{}
	fail := func(format string, args ...any) fleetResult {
		res.lat = time.Since(s)
		res.reason = fmt.Sprintf("fleet %s: ", id) + fmt.Sprintf(format, args...)
		return res
	}
	t := tr.start()
	if _, err := f.c.Submit(ctx, fleet.JobSpec{Tenant: fleetTenant, Experiment: id, Quick: true}); err != nil {
		return fail("submit: %v", err)
	}
	tr.end("fleet.submit", opID, "fleet.job", t)
	t = tr.start()
	g, err := f.c.Lease(ctx, fleetWorker)
	if err != nil || g == nil {
		return fail("lease: grant %v, %v", g, err)
	}
	tr.end("fleet.lease", opID, "fleet.job", t)
	t = tr.start()
	out, err := fleet.RunExperiment(ctx, g.Spec, nil)
	if err != nil {
		return fail("run: %v", err)
	}
	tr.end("fleet.run", opID, "fleet.job", t)
	t = tr.start()
	cs, err := f.c.Complete(ctx, fleetWorker, g.JobID, g.Attempt, out, "")
	if err != nil || cs != fleet.CompleteRecorded {
		return fail("complete: %q, %v", cs, err)
	}
	tr.end("fleet.complete", opID, "fleet.job", t)
	t = tr.start()
	st, err := f.c.Job(ctx, g.JobID)
	if err != nil {
		return fail("status: %v", err)
	}
	tr.end("fleet.status", opID, "fleet.job", t)
	tr.end("fleet.job", opID, "", s)
	res.lat = time.Since(s)
	switch {
	case st.State != fleet.JobDone || st.Output != out:
		return fail("job %s is %s with %d output bytes, reported %d", g.JobID, st.State, len(st.Output), len(out))
	case !e.checkOutput("fleet/"+g.Spec.Experiment, out):
		return fail("output differs from golden")
	}
	res.ok = true
	return res
}

// scrape reads and validates the coordinator's /metrics.
func (f *fleetSession) scrape(tr *tracer, opID string) fleetResult {
	s := time.Now()
	resp, err := http.Get(f.d.addr + "/metrics")
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	tr.end("fleet.scrape", opID, "", s)
	res := fleetResult{lat: time.Since(s), ok: err == nil}
	if err != nil {
		res.reason = "fleet scrape: " + err.Error()
	} else if probs := promexp.CheckText(b); len(probs) > 0 {
		res.ok, res.reason = false, "fleet scrape: "+probs[0]
	}
	return res
}

// startFleet launches a coordinator on a fresh journal, registers the
// benchmark as worker, and runs one warm-up job and one scrape.
func startFleet(ctx context.Context, e *env, i int) (*fleetSession, time.Duration, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("uvmfleet-%d", i))
	if err := freshDir(dir); err != nil {
		return nil, 0, err
	}
	f := &fleetSession{journal: filepath.Join(dir, "fleet.journal")}
	s := time.Now()
	d, err := startDaemon(filepath.Join(e.bin, "uvmfleet"), filepath.Join(dir, "uvmfleet.log"),
		"-addr", "127.0.0.1:0", "-journal", f.journal)
	if err != nil {
		return nil, 0, err
	}
	f.d, f.c = d, fleet.NewClient(d.addr)
	if err := f.c.Register(ctx, fleetWorker, fleetLoops, 0); err != nil {
		d.stop()
		return nil, 0, err
	}
	for _, r := range []fleetResult{f.job(ctx, e, nil, "T2", "warmup"), f.scrape(nil, "warmup")} {
		e.tally.add(r.ok, "fleet warm-up: "+r.reason)
	}
	return f, time.Since(s), nil
}

// runFleet is fleet_jobs: a fixed number of sessions, each a fresh
// uvmfleet -journal and a fixed number of jobs, since the coordinator's
// per-op cost grows with the jobs it has ever held.
func runFleet(e *env, tr *tracer, layer map[string]float64) (e2e, error) {
	var r e2e
	ctx := context.Background()
	var f *fleetSession
	for i := 0; i < e.setups; i++ {
		var took time.Duration
		var err error
		if f, took, err = startFleet(ctx, e, i); err != nil {
			return r, err
		}
		r.setupS = append(r.setupS, took.Seconds())
		if i < e.setups-1 {
			f.d.stop()
		}
	}

	cal := e.startCal()
	var rates, rss, submitsFirst, submitsLast []float64
	var jobs, jobsOK int
	var leases, journalBytes int64
	for k := 0; k < fleetSessions(e.seconds); k++ {
		if k > 0 {
			var took time.Duration
			var err error
			if f, took, err = startFleet(ctx, e, e.setups+k); err != nil {
				return r, err
			}
			r.setupS = append(r.setupS, took.Seconds())
		}
		s, err := f.session(ctx, e, tr, cal, k)
		f.d.stop()
		if err != nil {
			return r, err
		}
		rates = append(rates, s.rates...)
		r.latMS = append(r.latMS, s.latMS...)
		rss = append(rss, s.rssMB)
		jobs, jobsOK = jobs+s.jobs, jobsOK+s.jobsOK
		leases, journalBytes = leases+s.leases, journalBytes+s.journalBytes
		if tenth := len(s.submitMS) / 10; tenth > 0 {
			submitsFirst = append(submitsFirst, s.submitMS[:tenth]...)
			submitsLast = append(submitsLast, s.submitMS[len(s.submitMS)-tenth:]...)
		}
	}
	r.opsPerSec = median(rates)
	r.rssMB = median(rss)
	r.calMS = median(cal.samplesMS)
	if layer == nil {
		return r, nil
	}

	layer["fleet.submit_ms"] = median(tr.durMS("fleet.submit"))
	layer["fleet.submit_ms_first"] = median(submitsFirst)
	layer["fleet.submit_ms_last"] = median(submitsLast)
	layer["fleet.lease_ms"] = median(tr.durMS("fleet.lease"))
	layer["fleet.run_ms"] = median(tr.durMS("fleet.run"))
	layer["fleet.complete_ms"] = median(tr.durMS("fleet.complete"))
	layer["fleet.status_ms"] = median(tr.durMS("fleet.status"))
	layer["fleet.scrape_ms"] = median(tr.durMS("fleet.scrape"))
	layer["jsonl.bytes_per_op"] = float64(journalBytes) / float64(jobs)
	layer["fleet.leases_per_op"] = float64(leases) / float64(jobs)
	layer["fleet.recon_leases_gap"] = float64(leases - int64(jobsOK))
	finding(leases != int64(jobsOK), "fleet_jobs: leases_granted moved by %d, clients completed %d jobs", leases, jobsOK)
	return r, nil
}

// sessionResult is what one fleet session measured. The counter deltas and
// submit times are filled only when traced.
type sessionResult struct {
	rates, latMS []float64
	rssMB        float64
	jobs, jobsOK int
	leases       int64
	journalBytes int64
	submitMS     []float64 // this session's submit spans, in order
}

// session runs session k's fixed op list against f, the benchmark acting
// as the only tenant and worker.
func (f *fleetSession) session(ctx context.Context, e *env, tr *tracer, cal *calibrator, k int) (sessionResult, error) {
	var s sessionResult
	segs := fleetSessionSegments
	plan := fleetPlan(e.seed, k, segs)
	var before fleet.Counters
	var journalBefore int64
	submitsBefore := 0
	if tr != nil {
		st, err := f.c.Fleet(ctx)
		if err != nil {
			return s, err
		}
		before = st.Counters
		if journalBefore, err = fileSize(f.journal); err != nil {
			return s, err
		}
		submitsBefore = len(tr.durMS("fleet.submit"))
	}
	results := make([][]fleetResult, len(plan))
	n := make([]int, len(plan))
	for l := range plan {
		results[l] = make([]fleetResult, len(plan[l]))
		n[l] = len(plan[l])
	}
	s.rates = closedLoop(n, segs, cal, func(l, i int) {
		opID := fmt.Sprintf("s%d/l%d/%d", k, l, i)
		var res fleetResult
		if id := plan[l][i]; id == "" {
			res = f.scrape(tr, opID)
		} else {
			res = f.job(ctx, e, tr, id, opID)
		}
		if i%fleetRoundLen == fleetRoundLen-1 {
			t := tr.start()
			if err := f.c.Heartbeat(ctx, fleetWorker); err != nil {
				res.ok, res.reason = false, "heartbeat: "+err.Error()
			}
			tr.end("fleet.heartbeat", opID, "", t)
		}
		results[l][i] = res
	})

	for l, ops := range plan {
		for i, id := range ops {
			res := results[l][i]
			e.tally.add(res.ok, res.reason)
			s.latMS = append(s.latMS, ms(res.lat))
			if id != "" {
				s.jobs++
				if res.ok {
					s.jobsOK++
				}
			}
		}
	}
	var err error
	if s.rssMB, err = f.d.peakRSSMB(); err != nil || tr == nil {
		return s, err
	}

	st, err := f.c.Fleet(ctx)
	if err != nil {
		return s, err
	}
	journalAfter, err := fileSize(f.journal)
	if err != nil {
		return s, err
	}
	s.leases = st.Counters.LeasesGranted - before.LeasesGranted
	s.journalBytes = journalAfter - journalBefore
	s.submitMS = tr.durMS("fleet.submit")[submitsBefore:]
	return s, nil
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
