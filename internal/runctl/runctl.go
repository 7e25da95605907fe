// Package runctl is the run-control (watchdog) layer for simulations that
// must be cancellable and bounded: it carries a context.Context, an optional
// wall-clock deadline, and an optional sim-time budget down into the driver
// loop, which polls Check at its operation boundaries. A tripped control
// aborts the run with a structured *Interrupt error — never an unrecovered
// panic — at a point where the driver's invariants hold, so an aborted run
// always passes the runtime sanitizer.
//
// This is deliberately the only simulation-adjacent package allowed to read
// the wall clock (see the simdet analyzer's allowlist): virtual time stays a
// pure function of the inputs, while the watchdog measures how long the
// *host* has been grinding, which is exactly what a production service needs
// to kill a runaway simulation. A Control never advances simulated time and
// never perturbs metrics, so two runs of the same seeded workload — one with
// a control that never trips, one without — produce byte-identical results.
//
// Ownership rules mirror sim.RNG and faultinject.Injector: a Control is
// single-threaded per run, freshly constructed for every run, and never
// shared between concurrently executing runs.
package runctl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"uvmdiscard/internal/sim"
)

// Reason classifies why a run was interrupted.
type Reason int

const (
	// Canceled means the run's context was canceled (client disconnect,
	// batch cancellation, service shutdown).
	Canceled Reason = iota
	// WallDeadline means the run exceeded its host wall-clock budget — the
	// watchdog verdict for a runaway simulation.
	WallDeadline
	// SimBudget means the simulated clock ran past the run's sim-time
	// budget.
	SimBudget
)

// String names the reason the way service metrics and logs report it.
func (r Reason) String() string {
	switch r {
	case Canceled:
		return "canceled"
	case WallDeadline:
		return "wall-deadline"
	case SimBudget:
		return "sim-budget"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Interrupt is the structured error a tripped control produces. It records
// where the run was stopped (the driver operation and the simulated time),
// so an aborted run is diagnosable and countable, never silently dropped.
type Interrupt struct {
	// Reason says which limit tripped.
	Reason Reason
	// Op is the driver operation at whose boundary the run stopped.
	Op string
	// SimTime is the simulated time at the stop point.
	SimTime sim.Time
	// Wall is how long the run had been executing on the host.
	Wall time.Duration
	// Cause is the underlying context error for Canceled interrupts.
	Cause error
}

// Error implements error.
func (i *Interrupt) Error() string {
	return fmt.Sprintf("runctl: run interrupted (%s) at %s, sim time %v, wall %v",
		i.Reason, i.Op, i.SimTime, i.Wall.Round(time.Microsecond))
}

// Unwrap maps the interrupt onto the standard context sentinels so callers
// can errors.Is(err, context.Canceled / context.DeadlineExceeded).
func (i *Interrupt) Unwrap() error {
	switch i.Reason {
	case Canceled:
		if i.Cause != nil {
			return i.Cause
		}
		return context.Canceled
	default:
		return context.DeadlineExceeded
	}
}

// AsInterrupt extracts an *Interrupt from an error chain, or nil.
func AsInterrupt(err error) *Interrupt {
	var i *Interrupt
	if errors.As(err, &i) {
		return i
	}
	return nil
}

// wallCheckStride is how many Check calls elapse between wall-clock reads.
// The cancel poll (a non-blocking receive on the cached Done channel) and
// the sim-budget compare run on every call; time.Now costs more than both
// together, so it is only consulted every strideth call.
const wallCheckStride = 32

// progressStride is how many Check calls elapse between progress-snapshot
// publications. Publishing copies the snapshot into the control's one
// Progress under a mutex and runs the observer, so it is amortized like
// the wall clock.
const progressStride = 64

// Progress is a point-in-time observation of a run taken at a driver
// checkpoint: which operation the run last crossed, how far the simulated
// clock has advanced, and how many times it has polled its control. It is
// the payload of the uvmsimd progress stream — a client watching a job sees
// sim-time advance without polling the job resource.
type Progress struct {
	// Op is the driver operation at the observed checkpoint.
	Op string
	// SimTime is the simulated clock at the observed checkpoint.
	SimTime sim.Time
	// Checks is the number of Check calls the run has made so far. The
	// driver calls Check at operation entries and on every 32nd block
	// checkpoint, so this counts full polls, not blocks.
	Checks uint64
	// Done marks the final observation of an interrupted run (the trip
	// point); completed runs simply stop publishing.
	Done bool
}

// Control carries one run's cancellation and budget state. The zero value
// and the nil pointer are both inert (Check always passes), so fault-free
// code paths pay a single nil comparison.
//
// A Control is single-threaded except for the published progress snapshot
// (the fields after mu): the run writes it from inside Check, and any
// number of observer goroutines may read it through Progress — the one
// cross-goroutine surface of the type. mu is a leaf lock: nothing else is
// acquired while it is held, and the observer runs after it is released.
type Control struct {
	ctx          context.Context
	done         <-chan struct{} // ctx.Done(), cached; nil when never canceled
	wallDeadline time.Time
	started      time.Time
	simBudget    sim.Time
	calls        uint64
	tripped      *Interrupt
	observe      func(Progress)

	mu        sync.Mutex
	prog      Progress
	published bool
}

// New builds a control for one run. ctx may be nil (never canceled);
// wallBudget and simBudget of zero mean unlimited. The run's host clock —
// Interrupt.Wall and the wall-clock deadline — starts counting when New is
// called, so construct the control at run start.
func New(ctx context.Context, wallBudget time.Duration, simBudget sim.Time) *Control {
	c := &Control{ctx: ctx, simBudget: simBudget, started: time.Now()}
	if ctx != nil {
		c.done = ctx.Done()
	}
	if wallBudget > 0 {
		c.wallDeadline = c.started.Add(wallBudget)
	}
	return c
}

// SimLimit returns the latest simulated time at which Check still passes
// the sim budget: the budget itself, or sim.Infinity when there is none. A
// caller that polls Check on a stride compares against it on every step,
// so a sim budget still trips at exactly the first point past it. Safe on
// a nil receiver.
func (c *Control) SimLimit() sim.Time {
	if c == nil || c.simBudget <= 0 {
		return sim.Infinity
	}
	return c.simBudget
}

// SetObserver registers fn to be called from inside Check whenever a
// progress snapshot is published (the progressStride-amortized checkpoints,
// plus the final trip-point observation). It is the liveness hook of the
// fleet layer: a worker renews its job lease from here, so renewal is
// evidence the simulation is actually crossing driver checkpoints — a hung
// run stops renewing and its lease expires.
//
// fn runs on the run's own goroutine at a driver operation boundary, so it
// must be cheap and non-blocking (the fleet worker does a non-blocking
// channel send). Set it before the run starts; a Control is single-threaded
// state and SetObserver must not race Check. Safe on a nil receiver.
func (c *Control) SetObserver(fn func(Progress)) {
	if c == nil {
		return
	}
	c.observe = fn
}

// Active reports whether the control can ever trip.
func (c *Control) Active() bool {
	return c != nil && (c.ctx != nil || !c.wallDeadline.IsZero() || c.simBudget > 0)
}

// Interrupted returns the interrupt that tripped this control, or nil.
// Once tripped, a control stays tripped: every later Check returns the same
// interrupt, so a run cannot accidentally resume past its own abort.
func (c *Control) Interrupted() *Interrupt {
	if c == nil {
		return nil
	}
	return c.tripped
}

// Check polls the control at a driver operation boundary named op with the
// simulated clock at now. It returns nil when the run may continue and a
// sticky *Interrupt once any limit trips. In order, it publishes progress on
// the 1st and every progressStride-th call, polls cancellation and compares
// the sim budget on every call, and reads the wall clock every
// wallCheckStride-th call. Check never blocks and never advances simulated
// time. Safe on a nil receiver.
func (c *Control) Check(op string, now sim.Time) *Interrupt {
	if c == nil {
		return nil
	}
	if c.tripped != nil {
		return c.tripped
	}
	c.calls++
	if c.calls == 1 || c.calls%progressStride == 0 {
		c.publish(Progress{Op: op, SimTime: now, Checks: c.calls})
	}
	if c.done != nil {
		select {
		case <-c.done:
			return c.trip(Canceled, op, now, c.ctx.Err())
		default:
		}
	}
	if c.simBudget > 0 && now > c.simBudget {
		return c.trip(SimBudget, op, now, nil)
	}
	if !c.wallDeadline.IsZero() && c.calls%wallCheckStride == 0 {
		if time.Now().After(c.wallDeadline) {
			return c.trip(WallDeadline, op, now, nil)
		}
	}
	return nil
}

func (c *Control) trip(r Reason, op string, now sim.Time, cause error) *Interrupt {
	c.tripped = &Interrupt{Reason: r, Op: op, SimTime: now, Wall: time.Since(c.started), Cause: cause}
	// Final progress observation: observers see exactly where the run
	// stopped, marked Done so streams can close promptly.
	c.publish(Progress{Op: op, SimTime: now, Checks: c.calls, Done: true})
	return c.tripped
}

// publish makes p the control's current progress snapshot and hands it to
// the observer. The snapshot is copied into the control, so publishing
// never allocates.
func (c *Control) publish(p Progress) {
	c.mu.Lock()
	c.prog, c.published = p, true
	c.mu.Unlock()
	if c.observe != nil {
		c.observe(p)
	}
}

// Progress returns the most recently published progress observation and
// whether one exists yet. Safe to call from any goroutine, and on a nil
// control (reports no progress).
func (c *Control) Progress() (Progress, bool) {
	if c == nil {
		return Progress{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prog, c.published
}

// Abort panics with the interrupt. The driver calls this when a Check
// trips; the panic unwinds through the (side-effect-free at that point)
// operation and is converted back into an ordinary error by Recover at the
// workload boundary — callers of the workload drivers only ever see an
// error, never a panic.
func Abort(i *Interrupt) {
	panic(i)
}

// Recover converts an in-flight Interrupt panic into *errp, preserving any
// earlier error as the interrupt takes precedence only when *errp is nil.
// Any other panic is re-raised untouched. Use it as the first deferred call
// of a workload driver's Run:
//
//	func Run(...) (res workloads.Result, err error) {
//		defer runctl.Recover(&err)
//		...
func Recover(errp *error) {
	p := recover()
	if p == nil {
		return
	}
	i, ok := p.(*Interrupt)
	if !ok {
		panic(p)
	}
	if *errp == nil {
		*errp = i
	}
}
