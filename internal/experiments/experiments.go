// Package experiments regenerates every table and figure from the paper's
// evaluation (§7). Each experiment runs the relevant workloads on the
// simulated platform and renders a table with the measured values next to
// the numbers the paper reports, so the reproduction quality is visible at
// a glance. cmd/paperbench drives the full set; bench_test.go exposes one
// testing.B benchmark per experiment.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/workloads"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks problem sizes so the whole suite finishes in seconds
	// (used by unit tests); the full-size runs reproduce the paper's
	// magnitudes.
	Quick bool
	// Ctx, when non-nil, cancels in-flight simulations: the driver loop
	// polls it at operation boundaries and aborts the run with a structured
	// *runctl.Interrupt error. RunAll fills this in from its own context
	// when left nil.
	Ctx context.Context
	// WallBudget caps the host wall-clock time of the runs armed from these
	// options (the watchdog that kills runaway simulations); zero means no
	// wall deadline.
	WallBudget time.Duration
	// SimBudget caps each run's simulated time; zero means no budget.
	SimBudget sim.Time
	// OnControl, when non-nil, observes every run control armed from these
	// options immediately after construction. The uvmsimd service uses it
	// to track a batch job's currently active control for the progress
	// stream. arm is called from whichever worker goroutine builds the
	// platform, so the hook must be safe for concurrent use; it must not
	// call into the control beyond the documented cross-goroutine surface
	// (Progress).
	OnControl func(*runctl.Control)
}

// arm attaches a fresh run control to a platform when the options carry a
// cancellation or budget source; with nothing to enforce it returns p
// unchanged, so default runs take the exact code path they always did.
// Experiments call this at every Platform construction site — a control is
// single-threaded mutable state and must never be shared across concurrent
// runs, so each site gets its own.
func (o Options) arm(p workloads.Platform) workloads.Platform {
	if o.Ctx == nil && o.WallBudget <= 0 && o.SimBudget <= 0 {
		return p
	}
	p.Control = runctl.New(o.Ctx, o.WallBudget, o.SimBudget)
	if o.OnControl != nil {
		o.OnControl(p.Control)
	}
	return p
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the artifact identifier: "T3" for Table 3, "F5" for Figure 5,
	// "A1" for ablations.
	ID string
	// Title describes the artifact as the paper captions it.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes document deviations or context.
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first), for
// plotting the figures externally.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(t.Header)
	for _, r := range t.Rows {
		_ = w.Write(r)
	}
	w.Flush()
	return b.String()
}

// Experiment is one reproducible artifact.
type Experiment struct {
	// ID matches the paper artifact ("T1".."T8", "F3".."F7") or names an
	// ablation ("A1"..).
	ID string
	// Name is a short slug.
	Name string
	// Run executes the experiment.
	Run func(Options) (*Table, error)
}

var registry = map[string]Experiment{}

// register adds e, wrapping its Run in runctl.Recover: an experiment that
// drives a context directly meets an armed control's interrupt as a panic,
// which becomes its error here for every caller of Run.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	run := e.Run
	e.Run = func(o Options) (t *Table, err error) {
		defer runctl.Recover(&err)
		return run(o)
	}
	registry[e.ID] = e
}

// All returns every experiment in artifact order (tables, figures,
// ablations).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		return artifactKey(out[i].ID) < artifactKey(out[j].ID)
	})
	return out
}

// Lookup finds an experiment by ID (case-insensitive), or by name.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[strings.ToUpper(id)]
	if ok {
		return e, true
	}
	for _, x := range registry {
		if strings.EqualFold(x.Name, id) {
			return x, true
		}
	}
	return Experiment{}, false
}

// artifactKey orders T1..T8, then F3..F7, then ablations (A*), then
// extensions (X*).
func artifactKey(id string) string {
	if len(id) < 2 {
		return "z" + id
	}
	var class string
	switch id[0] {
	case 'T':
		class = "a"
	case 'F':
		class = "b"
	case 'A':
		class = "c"
	default:
		class = "d"
	}
	return class + fmt.Sprintf("%02s", id[1:])
}

// fmtRatio renders a normalized runtime like the paper's "0.51/0.52"
// PCIe-3/PCIe-4 cells. Built with strconv to avoid fmt's float boxing —
// the runtime tables format hundreds of cells per sweep.
func fmtRatio(gen3, gen4 float64) string {
	b := make([]byte, 0, 12)
	b = strconv.AppendFloat(b, gen3, 'f', 2, 64)
	b = append(b, '/')
	b = strconv.AppendFloat(b, gen4, 'f', 2, 64)
	return string(b)
}

// fmtGB renders gigabytes with two decimals like the paper's traffic
// tables.
func fmtGB(bytes uint64) string {
	return strconv.FormatFloat(float64(bytes)/1e9, 'f', 2, 64)
}
