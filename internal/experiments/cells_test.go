package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/workloads"
)

// cellExperiment is an unregistered experiment whose n cells run through
// runCells; its table has one row per cell, in index order.
func cellExperiment(id string, n int, cell func(i int) error) Experiment {
	return Experiment{ID: id, Name: "cells-" + id, Run: func(o Options) (*Table, error) {
		rows := make([]string, n)
		err := runCells(o, workloads.Platform{}, n, func(_ workloads.Platform, i int) error {
			if err := cell(i); err != nil {
				return err
			}
			rows[i] = strconv.Itoa(i)
			return nil
		})
		if err != nil {
			return nil, err
		}
		t := &Table{ID: id, Title: id, Header: []string{"cell"}}
		for _, r := range rows {
			t.AddRow(r)
		}
		return t, nil
	}}
}

// setProcs sets GOMAXPROCS, and so the cell workers and slots, to n for
// the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// panickyCell panics on the worker goroutine that runs cell 3; its name
// appears only in that goroutine's stack.
func panickyCell(i int) error {
	if i == 3 {
		panic("kaboom in cell " + strconv.Itoa(i))
	}
	return nil
}

// A panicking cell becomes its experiment's error, carrying the stack of
// the goroutine the cell ran on, and RunAll still runs and reports the
// other experiments.
func TestCellPanicBecomesExperimentError(t *testing.T) {
	ok := func(int) error { return nil }
	selected := []Experiment{
		cellExperiment("OK1", 4, ok),
		cellExperiment("PAN", 6, panickyCell),
		cellExperiment("OK2", 4, ok),
	}
	results := RunAll(selected, Options{}, nil, nil)
	for _, i := range []int{0, 2} {
		if r := results[i]; r.Err != nil || r.Table == nil || len(r.Table.Rows) != 4 {
			t.Errorf("%s: err %v, table %v", r.Experiment.ID, r.Err, r.Table)
		}
	}
	err := results[1].Err
	if err == nil || results[1].Table != nil {
		t.Fatalf("PAN: err %v, table %v; want the cell's panic and no table", err, results[1].Table)
	}
	for _, want := range []string{"kaboom in cell 3", "experiments.panickyCell"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("PAN error lacks %q:\n%v", want, err)
		}
	}
}

// When cells 2 and 5 both fail, the error is cell 2's, even when cell 5
// fails first; no cell after the failed one starts. At exactly two workers
// one holds cell 2 while the other runs 3, 4 and 5, so cells 6 and 7 are
// never claimed; with more workers they could start before 5 fails.
func TestCellErrorIsFirstInIndexOrder(t *testing.T) {
	setProcs(t, 2)
	fiveFailed := make(chan struct{})
	var started sync.Map
	e := cellExperiment("ERR", 8, func(i int) error {
		started.Store(i, true)
		switch i {
		case 2:
			// Hold cell 2 until cell 5, run by another worker, has failed.
			select {
			case <-fiveFailed:
			case <-time.After(10 * time.Second):
				return errors.New("cell 5 never ran while cell 2 was in flight")
			}
			return errors.New("cell 2 failed")
		case 5:
			defer close(fiveFailed)
			return errors.New("cell 5 failed")
		}
		return nil
	})
	tbl, err := e.Run(Options{})
	if err == nil || err.Error() != "cell 2 failed" || tbl != nil {
		t.Fatalf("err %v, table %v; want cell 2's error and no table", err, tbl)
	}
	for _, i := range []int{6, 7} {
		if _, ok := started.Load(i); ok {
			t.Errorf("cell %d started after cell 5 failed", i)
		}
	}
}

// With Options.Ctx already canceled, no cell starts and the error is one
// RunResult.Interrupted accepts.
func TestCellsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	e := cellExperiment("CAN", 6, func(int) error {
		ran.Add(1)
		return nil
	})
	tbl, err := e.Run(Options{Ctx: ctx})
	if !(RunResult{Err: err}).Interrupted() || tbl != nil {
		t.Fatalf("table %v, err %v; want an interrupt and no table", tbl, err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d cells ran under a canceled context", n)
	}
}

// Each cell worker arms one control and reuses it for every cell it runs,
// as a serial loop reuses one control: six cells on two workers see at most
// two controls, each announced once through OnControl.
func TestCellWorkersArmOnce(t *testing.T) {
	setProcs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	announced := map[*runctl.Control]int{}
	used := map[*runctl.Control]bool{}
	o := Options{Ctx: ctx, OnControl: func(c *runctl.Control) {
		mu.Lock()
		defer mu.Unlock()
		announced[c]++
	}}
	err := runCells(o, workloads.Platform{}, 6, func(p workloads.Platform, i int) error {
		if p.Control == nil {
			return fmt.Errorf("cell %d ran unarmed", i)
		}
		mu.Lock()
		defer mu.Unlock()
		used[p.Control] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(used) > 2 || len(announced) != len(used) {
		t.Errorf("six cells on two workers used %d controls, %d announced; want at most 2, each announced", len(used), len(announced))
	}
	for c, n := range announced {
		if n != 1 || !used[c] {
			t.Errorf("a control was announced %d times and used %v; want once and used", n, used[c])
		}
	}
}

// gauge counts the cells in flight and keeps the highest count seen.
type gauge struct{ now, peak atomic.Int32 }

func (g *gauge) enter() int32 {
	n := g.now.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	return n
}

func (g *gauge) leave() { g.now.Add(-1) }

// Two cells of one experiment are in flight at once, and across two
// experiments run concurrently no more than GOMAXPROCS cells ever are.
func TestCellsRunConcurrentlyWithinOneLimit(t *testing.T) {
	setProcs(t, max(2, runtime.GOMAXPROCS(0)))
	procs := runtime.GOMAXPROCS(0)

	var g gauge
	both := make(chan struct{})
	var once sync.Once
	e := cellExperiment("TWO", 2, func(int) error {
		defer g.leave()
		if g.enter() == 2 {
			once.Do(func() { close(both) })
		}
		select {
		case <-both:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("the other cell never started while this one was in flight")
		}
	})
	if _, err := e.Run(Options{}); err != nil {
		t.Fatal(err)
	}

	var all gauge
	busy := func(int) error {
		defer all.leave()
		all.enter()
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	// Two experiments run at once, as a daemon's concurrent jobs do.
	n := 4 * procs
	errs := make(chan error, 2)
	for _, id := range []string{"B1", "B2"} {
		e := cellExperiment(id, n, busy)
		go func() {
			_, err := e.Run(Options{})
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if peak := all.peak.Load(); peak > int32(procs) {
		t.Errorf("%d cells in flight at once across two experiments; GOMAXPROCS is %d", peak, procs)
	}
}

// At GOMAXPROCS 1 one worker runs the cells in index order.
func TestCellsSerialAtOneProc(t *testing.T) {
	setProcs(t, 1)
	var order []int
	e := cellExperiment("ONE", 8, func(i int) error {
		order = append(order, i)
		return nil
	})
	if _, err := e.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[0 1 2 3 4 5 6 7]"; got != want {
		t.Errorf("cells ran in order %s, want %s", got, want)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-timeout:
			t.Fatalf("timed out waiting until %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

// slotWaiters is the number of workers in line for a cell slot.
func slotWaiters() int {
	cellSlots.mu.Lock()
	defer cellSlots.mu.Unlock()
	return len(cellSlots.waiters)
}

// checkSlotsIdle fails the test unless every cell slot is free and nobody
// waits for one.
func checkSlotsIdle(t *testing.T) {
	t.Helper()
	cellSlots.mu.Lock()
	defer cellSlots.mu.Unlock()
	if cellSlots.inFlight != 0 || len(cellSlots.waiters) != 0 {
		t.Errorf("after the runs: %d cell slots taken, %d waiters", cellSlots.inFlight, len(cellSlots.waiters))
	}
}

// A freed slot goes to the longest waiter, not back to the worker that
// freed it: at GOMAXPROCS 1, experiment B's first cell runs as soon as A's
// first cell ends, before A's second.
func TestCellSlotGoesToLongestWaiter(t *testing.T) {
	setProcs(t, 1)
	var mu sync.Mutex
	var order []string
	record := func(id string, i int) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, id+strconv.Itoa(i))
	}
	hold := make(chan struct{})
	a := cellExperiment("A", 3, func(i int) error {
		record("A", i)
		if i == 0 {
			<-hold
		}
		return nil
	})
	b := cellExperiment("B", 3, func(i int) error {
		record("B", i)
		return nil
	})
	errs := make(chan error, 2)
	go func() { _, err := a.Run(Options{}); errs <- err }()
	waitFor(t, "cell A0 holds the slot", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})
	go func() { _, err := b.Run(Options{}); errs <- err }()
	waitFor(t, "B's worker waits for the slot", func() bool { return slotWaiters() == 1 })
	close(hold)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 6 || order[1] != "B0" {
		t.Errorf("cells ran in order %v; want B0 right after A0", order)
	}
	checkSlotsIdle(t)
}

// A worker waiting for a cell slot gives up as soon as Options.Ctx is
// canceled, and every slot is free again once the cells in flight end.
func TestCellsCanceledWhileWaitingForSlot(t *testing.T) {
	setProcs(t, 1)
	hold, holding := make(chan struct{}), make(chan struct{})
	a := cellExperiment("HLD", 1, func(int) error {
		close(holding)
		<-hold
		return nil
	})
	aErr := make(chan error, 1)
	go func() { _, err := a.Run(Options{}); aErr <- err }()
	<-holding

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	b := cellExperiment("WAIT", 4, func(int) error {
		ran.Add(1)
		return nil
	})
	bDone := make(chan RunResult, 1)
	go func() {
		tbl, err := b.Run(Options{Ctx: ctx})
		bDone <- RunResult{Table: tbl, Err: err}
	}()
	waitFor(t, "WAIT's worker waits for the slot", func() bool { return slotWaiters() == 1 })
	cancel()
	select {
	case r := <-bDone:
		if !r.Interrupted() || r.Table != nil {
			t.Errorf("table %v, err %v; want an interrupt and no table", r.Table, r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a worker waiting for a cell slot ignored the canceled context")
	}
	close(hold)
	if err := <-aErr; err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d cells ran after the cancel", n)
	}
	checkSlotsIdle(t)
}
