package service

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/catalog"
)

// runSummary is the JSON a finished single run reports.
type runSummary struct {
	Workload  string  `json:"workload"`
	System    string  `json:"system"`
	Ovsp      int     `json:"ovsp"`
	Runtime   string  `json:"runtime"`
	TrafficGB float64 `json:"traffic_gb"`
	H2DGB     float64 `json:"h2d_gb"`
	D2HGB     float64 `json:"d2h_gb"`
	SavedGB   float64 `json:"saved_gb"`
}

func (s *Server) runWorkloadJob(j *job) (string, error) {
	req := j.run
	sys, err := workloads.ParseSystem(req.System)
	if err != nil {
		return "", err
	}
	// Register the run's collector with the exporter for its lifetime; on
	// completion the counters fold into the cumulative totals.
	col := s.beginRun(j, req.Workload)
	defer s.endRun(j)
	if req.Workload == "spin" {
		// Spin never completes on its own; its only exits are the
		// structured ones (cancel, wall deadline, sim budget).
		p := workloads.Platform{GPU: gpudev.Generic(64 * units.MiB), Gen: pcie.Gen4, Control: j.control(), Metrics: col}
		_, err := workloads.Run(p, sys, &spin{}, nil)
		return "", err
	}
	w, err := catalog.Lookup(req.Workload)
	if err != nil {
		return "", err
	}
	st, gpu := w.New(req.Quick)
	// A one-run platform: the job's fresh control (ctx + budgets) and its
	// live metrics collector, so the /metrics exporter can watch the run.
	p := workloads.Platform{
		GPU: gpu, Gen: pcie.Gen4, OversubPercent: req.Ovsp, Faults: req.faults,
		Control: j.control(), Metrics: col,
	}
	env := s.checkpointEnv(j)
	res, err := workloads.Run(p, sys, st, env)
	if env != nil {
		if env.Stats.Resumed {
			j.addResumed(1)
			s.sc.Resumed.Add(1)
		}
		if err == nil {
			// Clean completion leaves nothing to resume; reclaim the file
			// now rather than waiting for retention eviction.
			if rerr := os.Remove(j.ckpt); rerr != nil && !os.IsNotExist(rerr) {
				s.logf("job %s: remove finished checkpoint %s: %v", j.id, j.ckpt, rerr)
			}
		}
	}
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(runSummary{
		Workload:  req.Workload,
		System:    res.System.String(),
		Ovsp:      req.Ovsp,
		Runtime:   res.Runtime.String(),
		TrafficGB: res.TrafficGB(),
		H2DGB:     float64(res.H2DBytes) / 1e9,
		D2HGB:     float64(res.D2HBytes) / 1e9,
		SavedGB:   float64(res.SavedH2D+res.SavedD2H) / 1e9,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// checkpointEnv builds the job's on-disk checkpoint environment: restore
// from the job's snapshot file when one survives on disk, durably rewrite
// it at every step boundary, and count a rejected (torn/corrupt) restore as
// it falls back to a from-zero run. Nil when the run was submitted without
// a checkpoint name — that path stays exactly as before.
func (s *Server) checkpointEnv(j *job) *checkpoint.Env {
	if j.ckpt == "" {
		return nil
	}
	env := &checkpoint.Env{
		Every: 1,
		Save: func(blob []byte) error {
			if err := checkpoint.WriteFile(j.ckpt, blob); err != nil {
				return err
			}
			s.sc.CheckpointsSaved.Add(1)
			return nil
		},
		OnReject: func(reason string) {
			s.sc.CheckpointsCorrupt.Add(1)
			s.logf("job %s: checkpoint %s rejected (%s); restarting from zero", j.id, j.ckpt, reason)
		},
	}
	blob, err := checkpoint.ReadFile(j.ckpt)
	switch {
	case err == nil:
		env.Restore = blob
	case os.IsNotExist(err):
		// Fresh run; nothing to resume.
	default:
		// Unreadable file (permissions, I/O): start from zero rather than
		// fail the job — durability must never outrank the answer.
		s.logf("job %s: read checkpoint %s: %v; starting from zero", j.id, j.ckpt, err)
	}
	return env
}

// spin is the runaway simulation: an endless kernel loop over a small
// resident buffer. It exists so the watchdog path is testable end to end —
// a correct service kills it at its deadline and the driver state it leaves
// behind passes the sanitizer.
type spin struct {
	ctx    *cuda.Context
	stream *cuda.Stream
	kernel cuda.Kernel
}

func (*spin) Name() string          { return "spin" }
func (*spin) Footprint() units.Size { return 32 * units.MiB }
func (*spin) Steps() int            { return math.MaxInt }

func (sp *spin) Setup(ctx *cuda.Context, _ workloads.Platform, _ workloads.System) error {
	buf, err := ctx.MallocManaged("spin", 16*units.MiB)
	if err != nil {
		return err
	}
	sp.ctx, sp.stream = ctx, ctx.Stream("spin")
	sp.kernel = cuda.Kernel{
		Name:     "spin",
		Compute:  10 * sim.Microsecond,
		Accesses: []cuda.Access{{Buf: buf, Offset: 0, Length: buf.Size(), Mode: core.Read}},
	}
	return nil
}

func (sp *spin) Step(i int) error {
	if err := sp.stream.Launch(sp.kernel); err != nil {
		return err
	}
	if i%1024 == 1023 {
		sp.ctx.DeviceSynchronize()
	}
	return nil
}

func (s *Server) runBatchJob(j *job) (res string, err error) {
	b := j.batch
	opts := experiments.Options{
		Quick:      b.Quick,
		Ctx:        j.ctx,
		WallBudget: j.wall,
		SimBudget:  j.simB,
		// Track each experiment's control as it arms, so the progress
		// stream follows the batch run by run.
		OnControl: j.setControl,
	}
	par := b.Parallelism
	if par < 1 {
		par = 1
	}
	var jnl *experiments.Journal
	if b.Journal != "" {
		jnl, err = experiments.OpenJournal(s.journalPath(b.Journal), b.Quick)
		if err != nil {
			return "", err
		}
		// A dropped close can lose buffered journal state, which is
		// exactly what the batch-resume smoke test replays from: surface
		// it as the job's error unless a run failure already outranks it.
		defer func() {
			if cerr := jnl.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("journal close: %w", cerr)
			}
		}()
	}
	results := experiments.RunAllJournaled(j.ctx, b.selected, opts, par, jnl, func(r experiments.RunResult) {
		j.addFinished(1)
		if r.Resumed {
			j.addResumed(1)
			s.sc.Resumed.Add(1)
		}
	})
	// Render completed tables in selection order — the same bytes
	// cmd/paperbench emits for the same selection, which is what the
	// kill/resume smoke test compares against an uninterrupted run.
	var out strings.Builder
	var firstFail, firstInterrupt error
	for _, r := range results {
		if r.Err != nil {
			wrapped := fmt.Errorf("experiment %s: %w", r.Experiment.ID, r.Err)
			if r.Interrupted() {
				if firstInterrupt == nil {
					firstInterrupt = wrapped
				}
			} else if firstFail == nil {
				firstFail = wrapped
			}
			continue
		}
		out.WriteString(r.Table.String())
		out.WriteByte('\n')
	}
	// A genuine failure outranks an interruption for the job's terminal
	// state; partial output is returned either way — finished tables are
	// real results (and journaled), not collateral of the failure.
	if firstFail != nil {
		return out.String(), firstFail
	}
	return out.String(), firstInterrupt
}
