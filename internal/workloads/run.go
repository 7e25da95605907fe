package workloads

import (
	"fmt"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
)

// Stepper is one run of a step workload: host pre-processing, then a fixed
// sequence of prefetch → kernel → discard steps. Use each one for one Run.
type Stepper interface {
	// Name is the workload's name; the runner's errors start with it.
	Name() string
	// Footprint is the application's GPU memory consumption, which sizes
	// the platform's oversubscription reservation. The runner calls it
	// before Setup, so it must not depend on Setup's validation.
	Footprint() units.Size
	// Setup validates the configuration, rejecting the systems the
	// workload does not implement, allocates the run's buffers and streams
	// on ctx and does the host pre-processing. Runtime is measured from its
	// return: it excludes pre-processing, as in §7.5.
	Setup(ctx *cuda.Context, p Platform, sys System) error
	// Steps is the number of steps, valid once Setup or Resume succeeded.
	Steps() int
	// Step issues step i; steps run in order, from 0 or from the step a
	// snapshot resumes at.
	Step(i int) error
}

// Resumer is a Stepper that can checkpoint: between steps its state is
// driver state, which a checkpoint.Snapshot holds, plus handles it rebinds.
type Resumer interface {
	Stepper
	// Digest folds in every value that steers the simulation, so a
	// snapshot only restores into the run that wrote it.
	Digest(p Platform, sys System) string
	// Resume replaces Setup on a restored context: it validates the
	// configuration and rebinds the run's buffers and streams from r.
	Resume(ctx *cuda.Context, p Platform, sys System, r *checkpoint.Restored) error
}

// Run executes s under sys on p and reports runtime, measured from the end
// of Setup, and traffic. A run interrupted by p.Control (cancel, wall
// deadline, sim budget) returns a *runctl.Interrupt error.
//
// A non-nil env needs a Resumer; otherwise Run fails before simulating
// anything. The run resumes from env.Restore when present, restarting from
// zero if the blob is rejected (corrupt state is never resumed), and saves
// a snapshot through env.Save after every env.Every-th step. A resumed
// run's Result equals an uninterrupted run's. With env == nil, Run does no
// checkpoint work at all.
func Run(p Platform, sys System, s Stepper, env *checkpoint.Env) (res Result, err error) {
	defer runctl.Recover(&err)
	r, resumable := s.(Resumer)
	if env != nil && !resumable {
		return Result{}, fmt.Errorf("%s: cannot checkpoint: the workload cannot resume from a snapshot", s.Name())
	}
	ctx, err := p.NewContext(s.Footprint())
	if err != nil {
		return Result{}, err
	}
	var (
		start sim.Time
		first int // > 0 once resumed
		dig   string
	)
	if env != nil {
		dig = r.Digest(p, sys)
	}
	if env != nil && env.Restore != nil {
		if start, first, err = resume(ctx, p, sys, r, dig, env.Restore); err == nil {
			env.Stats.Resumed, env.Stats.ResumedFrom = true, first
		} else {
			// Restart from zero on a brand-new context: the failed restore
			// may have partially applied state, including into a shared
			// metrics collector.
			env.Stats.Rejected = true
			if env.OnReject != nil {
				env.OnReject(err.Error())
			}
			if p.Metrics != nil {
				p.Metrics.Reset()
			}
			if ctx, err = p.NewContext(s.Footprint()); err != nil {
				return Result{}, err
			}
		}
	}
	if first == 0 {
		if err := s.Setup(ctx, p, sys); err != nil {
			return Result{}, err
		}
		start = ctx.Elapsed()
	}
	for i, n := first, s.Steps(); i < n; i++ {
		if err := s.Step(i); err != nil {
			return Result{}, err
		}
		if env != nil {
			env.Stats.StepsExecuted++
			if env.Due(i) {
				save(ctx, env, dig, i+1, start)
			}
		}
	}
	ctx.DeviceSynchronize()
	return CollectSince(sys, ctx, start), nil
}

// resume restores blob into ctx and rebinds r to it, returning the
// measurement start and the step to continue from.
func resume(ctx *cuda.Context, p Platform, sys System, r Resumer, dig string, blob []byte) (sim.Time, int, error) {
	snap, err := checkpoint.DecodeSnapshot(blob)
	if err != nil {
		return 0, 0, err
	}
	if snap.Digest != dig {
		return 0, 0, fmt.Errorf("%s: snapshot digest %s does not match this run's %s", r.Name(), snap.Digest, dig)
	}
	got, err := checkpoint.Restore(ctx, snap)
	if err == nil {
		err = r.Resume(ctx, p, sys, got)
	}
	// Captures follow a completed step: a resume starts at step 1 or later.
	if err == nil && (snap.Step < 1 || snap.Step > r.Steps()) {
		err = fmt.Errorf("%s: snapshot resumes at step %d of a %d-step run", r.Name(), snap.Step, r.Steps())
	}
	if err != nil {
		return 0, 0, err
	}
	return snap.Start, snap.Step, nil
}

// save snapshots the run before step next and hands the blob to env.Save.
// Failures are counted, not fatal: the answer does not depend on durability.
func save(ctx *cuda.Context, env *checkpoint.Env, dig string, next int, start sim.Time) {
	if env.Save == nil {
		return
	}
	snap, err := checkpoint.Capture(ctx, dig, next, start)
	if err == nil {
		var blob []byte
		if blob, err = checkpoint.EncodeSnapshot(snap); err == nil {
			err = env.Save(blob)
		}
	}
	if err != nil {
		env.Stats.SaveErrors++
		return
	}
	env.Stats.Captures++
}
