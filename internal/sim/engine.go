package sim

import "fmt"

// Engine models a serially-reusable hardware resource: a DMA copy engine,
// the GPU compute engine, the UVM driver's service thread, or the host
// thread. Work items reserve contiguous intervals; an engine executes at
// most one item at a time, FIFO in reservation order.
//
// Engines accumulate busy time so experiments can report utilization.
type Engine struct {
	name   string
	freeAt Time // end of the last reservation
	busy   Time // total reserved time
	ops    int64
}

// NewEngine returns an idle engine with the given display name.
func NewEngine(name string) *Engine {
	return &Engine{name: name}
}

// Name returns the engine's display name.
func (e *Engine) Name() string { return e.name }

// FreeAt returns the earliest time a new reservation can start.
func (e *Engine) FreeAt() Time { return e.freeAt }

// Busy returns the total time reserved on the engine so far.
func (e *Engine) Busy() Time { return e.busy }

// Ops returns the number of reservations made on the engine.
func (e *Engine) Ops() int64 { return e.ops }

// Reserve books dur time on the engine no earlier than ready, returning the
// interval actually granted. A zero-duration reservation returns
// [start, start) without occupying the engine.
func (e *Engine) Reserve(ready Time, dur Time) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on engine %s", dur, e.name))
	}
	start = Max(ready, e.freeAt)
	end = start + dur
	if dur > 0 {
		e.freeAt = end
		e.busy += dur
		e.ops++
	}
	return start, end
}

// Reset returns the engine to the idle state at time zero.
func (e *Engine) Reset() {
	e.freeAt = 0
	e.busy = 0
	e.ops = 0
}

// Clock tracks the host thread's position on the virtual timeline. CUDA API
// calls consume host time (they advance the clock); asynchronous work
// completes on engines at times at or after the call returned.
type Clock struct {
	now Time
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current host time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the host clock forward by d (which must be non-negative)
// and returns the new time.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	c.now += d
	return c.now
}

// WaitUntil moves the host clock to t if t is in the future; it never moves
// the clock backwards. It returns the new time.
func (c *Clock) WaitUntil(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset returns the clock to zero.
func (c *Clock) Reset() { c.now = 0 }
