package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"uvmdiscard/internal/runctl"
)

func stubExperiment(id string, run func(Options) (*Table, error)) Experiment {
	if run == nil {
		run = func(Options) (*Table, error) {
			return &Table{ID: id, Title: id, Header: []string{"a"}, Rows: [][]string{{id}}}, nil
		}
	}
	return Experiment{ID: id, Name: "stub-" + id, Run: run}
}

// The satellite regression: canceling a batch stops dispatch promptly — the
// batch returns within the one run already in flight, the in-flight result
// is kept, and every never-started experiment reports a structured
// ctx-derived error instead of being silently dropped.
func TestRunAllCancelReturnsWithinInFlightRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inFlight := make(chan struct{})
	release := make(chan struct{})
	selected := []Experiment{
		stubExperiment("RUN", func(Options) (*Table, error) {
			close(inFlight) // the dispatcher handed us to a worker
			<-release       // ...and we are mid-run while the cancel lands
			return &Table{ID: "RUN", Title: "ran", Header: []string{"a"}}, nil
		}),
		stubExperiment("Q1", nil),
		stubExperiment("Q2", nil),
		stubExperiment("Q3", nil),
	}

	done := make(chan []RunResult, 1)
	go func() { done <- RunAll(ctx, selected, Options{}, 1, nil) }()
	<-inFlight
	cancel()
	close(release)

	var results []RunResult
	select {
	case results = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunAll did not return after cancel + in-flight completion")
	}
	if results[0].Err != nil || results[0].Table == nil {
		t.Fatalf("in-flight run was not kept: %+v", results[0])
	}
	for _, r := range results[1:] {
		if r.Err == nil {
			t.Fatalf("%s: canceled experiment has no error", r.Experiment.ID)
		}
		if !errors.Is(r.Err, context.Canceled) || !r.Interrupted() {
			t.Fatalf("%s: error %v is not ctx-derived", r.Experiment.ID, r.Err)
		}
		if r.Table != nil {
			t.Fatalf("%s: canceled experiment produced a table", r.Experiment.ID)
		}
	}
}

// A batch whose context is dead before RunAll is called starts nothing at
// all — the priority check beats any free worker to the dispatch.
func TestRunAllPreCanceledStartsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	selected := []Experiment{
		stubExperiment("A", func(Options) (*Table, error) {
			ran = true
			return nil, nil
		}),
		stubExperiment("B", nil),
	}
	var progressed int
	results := RunAll(ctx, selected, Options{}, 4, func(RunResult) { progressed++ })
	if ran {
		t.Error("pre-canceled batch still started an experiment")
	}
	if progressed != len(selected) {
		t.Errorf("progress fired %d times, want %d (canceled runs must be reported)", progressed, len(selected))
	}
	for _, r := range results {
		if !r.Interrupted() {
			t.Errorf("%s: %v is not reported as interrupted", r.Experiment.ID, r.Err)
		}
	}
}

// Deterministic partial results: a real quick experiment that completes
// before the cancel renders byte-identical output to an uncancelled run of
// the same experiment — cancellation never perturbs finished work — and the
// cancellation reaches the in-flight simulation itself through opts.Ctx,
// which aborts at a driver checkpoint with a structured interrupt.
func TestRunAllCancelKeepsDeterministicPartialResults(t *testing.T) {
	e, ok := Lookup("T4")
	if !ok {
		t.Fatal("experiment T4 missing")
	}
	opts := Options{Quick: true}
	solo := RunAll(nil, []Experiment{e}, opts, 1, nil)
	if solo[0].Err != nil {
		t.Fatalf("baseline run failed: %v", solo[0].Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	selected := []Experiment{e, e, e}
	results := RunAll(ctx, selected, opts, 1, func(r RunResult) {
		cancel() // fires after the first completion
	})
	if results[0].Err != nil {
		t.Fatalf("first run failed: %v", results[0].Err)
	}
	if got, want := results[0].Table.String(), solo[0].Table.String(); got != want {
		t.Errorf("partial result differs from uncancelled run:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	interrupted := 0
	for _, r := range results[1:] {
		if r.Err == nil {
			t.Fatalf("%s index %d ran to completion after cancel", r.Experiment.ID, r.Index)
		}
		if r.Interrupted() {
			interrupted++
		} else {
			t.Errorf("index %d: %v is not a structured interruption", r.Index, r.Err)
		}
	}
	if interrupted != len(selected)-1 {
		t.Errorf("%d of %d post-cancel runs interrupted", interrupted, len(selected)-1)
	}
}

// Options reach every experiment: run directly (as fleet.RunExperiment
// does, outside RunAll) under an already-canceled context, each one stops
// with an interrupt error, never a panic or a finished table, and arms at
// least one run control, which is what fleet lease renewal and SSE progress
// hook into. T2 is exempt: it renders calibrated API cost curves and builds
// no driver.
func TestEveryExperimentHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		if e.ID == "T2" {
			continue
		}
		var armed atomic.Int32
		tbl, err := e.Run(Options{Quick: true, Ctx: ctx, OnControl: func(*runctl.Control) { armed.Add(1) }})
		if !(RunResult{Err: err}).Interrupted() || tbl != nil {
			t.Errorf("%s: table %v, err %v; want an interrupt", e.ID, tbl != nil, err)
		}
		if armed.Load() == 0 {
			t.Errorf("%s: armed no run control", e.ID)
		}
	}
}
