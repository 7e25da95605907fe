package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/workloads"
)

// runCells runs the n independent simulations ("cells") of one artifact on
// up to GOMAXPROCS worker goroutines. Each worker arms its own copy of p
// once with o.arm and passes it to every cell it runs, as a serial loop
// reuses one control. cell(p, i) may change its copy of p; it must store
// what its row needs at index i of a slice the caller renders after
// runCells returns, so the table is byte-identical at any core count. A
// cell must not call runCells.
//
// Workers claim cells in index order, and each cell runs holding one of
// the process's cell slots (see acquireSlot). The error is that of the
// first failing cell in index order: once cell k fails, no cell after k
// starts, while the cells before it still finish. A canceled o.Ctx fails
// the next cell to start the same way, also while it waits for a slot. A
// cell's panic is raised again on the caller's goroutine, carrying the
// stack of the goroutine it ran on.
func runCells(o Options, p workloads.Platform, n int, cell func(p workloads.Platform, i int) error) error {
	r := &cellRun{cell: cell, errs: make([]error, n), stopAt: n}
	workers := min(runtime.GOMAXPROCS(0), n)
	r.wg.Add(workers)
	for range workers {
		go r.work(o, p)
	}
	r.wg.Wait()
	for _, err := range r.errs {
		if cp, ok := err.(*cellPanic); ok {
			panic(cp)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// cellRun is what the workers of one runCells call share.
type cellRun struct {
	cell func(p workloads.Platform, i int) error
	errs []error // errs[i] is cell i's error; written once, read after wg.Wait
	wg   sync.WaitGroup

	mu     sync.Mutex
	next   int // the next cell to start
	stopAt int // no cell at or after stopAt starts
}

// work runs cells until none is left to start.
func (r *cellRun) work(o Options, p workloads.Platform) {
	defer r.wg.Done()
	i := r.claim()
	if i < 0 {
		return
	}
	p = o.arm(p)
	for ; i >= 0; i = r.claim() {
		err := acquireSlot(o, r, i)
		if err == nil {
			err = runCell(r.cell, p, i)
		}
		if err != nil {
			r.fail(i, err)
		}
	}
}

// claim hands out the next cell to start, or -1 when none is left.
func (r *cellRun) claim() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next >= r.stopAt {
		return -1
	}
	r.next++
	return r.next - 1
}

// wanted reports whether cell i may still start.
func (r *cellRun) wanted(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return i < r.stopAt
}

// fail records cell i's error and keeps every later cell from starting.
func (r *cellRun) fail(i int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs[i] = err
	r.stopAt = min(r.stopAt, i)
}

// runCell runs cell i in the slot its caller took, and gives the slot
// back however the cell ends. An interrupt panic becomes its error, as at
// a workload boundary; any other panic becomes a *cellPanic holding the
// cell's stack.
func runCell(cell func(workloads.Platform, int) error, p workloads.Platform, i int) (err error) {
	defer releaseSlot()
	defer func() {
		if v := recover(); v != nil {
			err = &cellPanic{cell: i, value: v, stack: debug.Stack()}
		}
	}()
	defer runctl.Recover(&err)
	return cell(p, i)
}

// cellPanic carries a cell's panic to the goroutine that called runCells.
type cellPanic struct {
	cell  int
	value any
	stack []byte
}

func (c *cellPanic) Error() string {
	return fmt.Sprintf("cell %d panicked: %v\n%s", c.cell, c.value, c.stack)
}

// errCellSkipped is the error of a cell that did not start because an
// earlier cell failed. runCells never returns it: the earlier cell's error
// comes first in index order.
var errCellSkipped = errors.New("experiments: cell skipped after an earlier cell failed")

// cellSlots keeps at most GOMAXPROCS cell simulations in flight in the
// process, however many experiments run at once. A freed slot goes to the
// longest waiter, so no experiment's workers can keep taking slots back
// while another's wait.
var cellSlots struct {
	mu       sync.Mutex
	inFlight int
	waiters  []chan struct{} // oldest first; each is closed when handed a slot
}

// acquireSlot takes a cell slot for cell i of r, waiting in line while
// every slot is taken. It gives up with o.Ctx's error once the context is
// canceled, and with errCellSkipped once an earlier cell of r has failed;
// a waiter learns the latter when its turn comes.
func acquireSlot(o Options, r *cellRun, i int) error {
	if err := mayStart(o, r, i); err != nil {
		return err
	}
	cellSlots.mu.Lock()
	if len(cellSlots.waiters) == 0 && cellSlots.inFlight < runtime.GOMAXPROCS(0) {
		cellSlots.inFlight++
		cellSlots.mu.Unlock()
		return nil
	}
	handed := make(chan struct{})
	cellSlots.waiters = append(cellSlots.waiters, handed)
	cellSlots.mu.Unlock()
	var done <-chan struct{}
	if o.Ctx != nil {
		done = o.Ctx.Done()
	}
	select {
	case <-handed:
	case <-done:
		if !leaveLine(handed) {
			releaseSlot() // the slot arrived as the context was canceled
		}
		return o.Ctx.Err()
	}
	if err := mayStart(o, r, i); err != nil {
		releaseSlot()
		return err
	}
	return nil
}

// mayStart returns why cell i of r must not start, or nil.
func mayStart(o Options, r *cellRun, i int) error {
	if o.Ctx != nil && o.Ctx.Err() != nil {
		return o.Ctx.Err()
	}
	if !r.wanted(i) {
		return errCellSkipped
	}
	return nil
}

// leaveLine takes a waiter that gave up out of line. It reports false when
// the waiter was handed a slot first, which its caller must then release.
func leaveLine(handed chan struct{}) bool {
	cellSlots.mu.Lock()
	defer cellSlots.mu.Unlock()
	k := slices.Index(cellSlots.waiters, handed)
	if k < 0 {
		return false
	}
	cellSlots.waiters = slices.Delete(cellSlots.waiters, k, k+1)
	return true
}

// releaseSlot hands a cell slot to the longest waiter, or frees it when
// nobody waits or GOMAXPROCS has fallen below the slots in use.
func releaseSlot() {
	cellSlots.mu.Lock()
	defer cellSlots.mu.Unlock()
	if len(cellSlots.waiters) > 0 && cellSlots.inFlight <= runtime.GOMAXPROCS(0) {
		close(cellSlots.waiters[0])
		cellSlots.waiters = slices.Delete(cellSlots.waiters, 0, 1)
		return
	}
	cellSlots.inFlight--
}
