package workloads

import (
	"fmt"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/runctl"
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
	// Steps is the number of steps, valid once Setup succeeded.
	Steps() int
	// Step issues step i; steps run in order from 0.
	Step(i int) error
}

// Resumer is a Stepper that can checkpoint. A checkpoint is a step marker
// (checkpoint.Marker), and a run resumes by replay: the simulation is
// deterministic, so re-running the finished steps rebuilds their state.
type Resumer interface {
	Stepper
	// Digest folds in every value that steers the simulation, so a
	// marker only resumes the run that wrote it.
	Digest(p Platform, sys System) string
}

// Run executes s under sys on p and reports runtime, measured from the end
// of Setup, and traffic. A run interrupted by p.Control (cancel, wall
// deadline, sim budget) returns a *runctl.Interrupt error.
//
// A non-nil env needs a Resumer; otherwise Run fails before simulating
// anything. Every run simulates every step from 0. The run resumes from
// the marker in env.Restore when it is valid (corrupt, foreign or
// impossible markers are rejected) and saves a marker through env.Save
// after every env.Every-th step that the marker does not cover. A resumed
// run's Result equals an uninterrupted run's. With env == nil, Run does no
// checkpoint work at all.
func Run(p Platform, sys System, s Stepper, env *checkpoint.Env) (res Result, err error) {
	defer runctl.Recover(&err)
	r, resumable := s.(Resumer)
	if env != nil && !resumable {
		return Result{}, fmt.Errorf("%s: cannot checkpoint: the workload cannot resume from a marker", s.Name())
	}
	ctx, err := p.NewContext(s.Footprint())
	if err != nil {
		return Result{}, err
	}
	if err := s.Setup(ctx, p, sys); err != nil {
		return Result{}, failed(ctx, err)
	}
	start := ctx.Elapsed()
	var (
		dig  string
		from int // the first step whose marker is not yet saved
	)
	if env != nil {
		dig = r.Digest(p, sys)
		from = resumeFrom(env, s.Name(), dig, s.Steps())
	}
	for i, n := 0, s.Steps(); i < n; i++ {
		if err := s.Step(i); err != nil {
			return Result{}, failed(ctx, err)
		}
		if i >= from && env.Due(i) {
			save(env, dig, i+1)
		}
	}
	ctx.DeviceSynchronize()
	return CollectSince(sys, ctx, start), nil
}

// failed ends a run that failed with err and returns err. The driver folds
// its per-block counts into the run's collector only now and then, and a
// caller that supplied the collector (Platform.Metrics) keeps it, so a
// failed run, like a finished one (Collect), folds its last counts in.
func failed(ctx *cuda.Context, err error) error {
	ctx.Driver().Metrics() // Metrics folds the pending counts.
	return err
}

// resumeFrom judges the marker in env.Restore for a run of steps steps
// whose digest is dig, records the verdict in env.Stats, and returns the
// step the run resumes from: the marker's, or 0 without a valid marker.
func resumeFrom(env *checkpoint.Env, name, dig string, steps int) int {
	if env.Restore == nil {
		return 0
	}
	m, err := checkpoint.DecodeMarker(env.Restore)
	switch {
	case err != nil:
	case m.Digest != dig:
		err = fmt.Errorf("%s: checkpoint digest %s does not match this run's %s", name, m.Digest, dig)
	case m.Step < 1 || m.Step > steps:
		// Saves follow a completed step: a marker counts 1 to steps steps.
		err = fmt.Errorf("%s: checkpoint resumes at step %d of a %d-step run", name, m.Step, steps)
	}
	if err != nil {
		env.Stats.Rejected = true
		if env.OnReject != nil {
			env.OnReject(err.Error())
		}
		return 0
	}
	env.Stats.Resumed, env.Stats.ResumedFrom = true, m.Step
	return m.Step
}

// save hands env.Save the marker of a run that has finished done steps.
// Failures are counted, not fatal: the answer does not depend on durability.
func save(env *checkpoint.Env, dig string, done int) {
	blob, err := checkpoint.EncodeMarker(checkpoint.Marker{Digest: dig, Step: done})
	if err == nil {
		err = env.Save(blob)
	}
	if err != nil {
		env.Stats.SaveErrors++
		return
	}
	env.Stats.Captures++
}
