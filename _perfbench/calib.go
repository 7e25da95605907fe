package main

import (
	"math/rand/v2"
	"time"
)

// The calibration kernel is a fixed piece of work shaped like the
// simulator's hot path: an intrusive LRU list of fixed-size nodes, a map
// from key to node, and a non-blocking channel poll per step. It lives in
// the benchmark, so a change to the program never changes it; its time
// measures the host's speed while the benchmark runs.
//
// On a shared host the program's speed moves by a quarter from minute to
// minute with the load of other tenants (CPU time moves with it, so it is
// cache and memory contention, not steal). The kernel slows down with it,
// and each run samples the kernel between its timed ops, outside their
// timing. The kernel is a control variate: the end-to-end times are
// reported at the kernel's nominal speed, scaled by the run's slowdown
// (median sample over calNominalMS) to the power calElasticity.

// calNominalMS is about the kernel's median time on a shared 2-core 2.1 GHz
// Xeon VM. Only ratios between runs matter; it keeps the scaled figures
// near the raw ones.
const calNominalMS = 3.0

// calElasticity is how strongly the program's times follow the kernel's.
// Every kernel access misses L2, so contention moves the kernel about twice
// as far as the program: over 15 runs of each workload on a shared 2-core
// x86 VM, a least-squares fit of log rate on log slowdown gave 0.54 for
// fleet_jobs (correlation 0.97) and 0.5 to 1.0 for paper_full, and 0.5 gave
// the smallest spread on both. 1 would over-correct fleet_jobs.
const calElasticity = 0.5

// calEveryMS is how much timed work each kernel sample stands for.
const calEveryMS = 100

type calNode struct {
	prev, next *calNode
	key        uint64
	_          [5]uint64 // one 64-byte line per node, like a block record
}

type calibrator struct {
	nodes []calNode
	index map[uint64]*calNode
	head  calNode       // sentinel: head.next is the least recently used
	stop  chan struct{} // never closed: polled like a run's cancel channel
	keys  []uint64      // the touch sequence, the same on every call
	sink  uint64

	samplesMS []float64
}

const (
	calNodes = 1 << 17 // 8 MiB of nodes plus the map: past L2, inside a quiet L3
	calSteps = 1 << 15
)

func newCalibrator() *calibrator {
	c := &calibrator{nodes: make([]calNode, calNodes), index: make(map[uint64]*calNode, calNodes), stop: make(chan struct{})}
	c.head.prev, c.head.next = &c.head, &c.head
	r := rand.New(rand.NewPCG(7, 11))
	for i := range c.nodes {
		n := &c.nodes[i]
		n.key = r.Uint64()
		c.index[n.key] = n
		c.pushTail(n)
	}
	c.keys = make([]uint64, calSteps)
	for i := range c.keys {
		c.keys[i] = c.nodes[r.IntN(calNodes)].key
	}
	return c
}

func (c *calibrator) pushTail(n *calNode) {
	n.prev, n.next = c.head.prev, &c.head
	c.head.prev.next = n
	c.head.prev = n
}

// sample runs the kernel n times and records each time.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		c.samplesMS = append(c.samplesMS, ms(c.run()))
	}
}

// run does the fixed work once and returns how long it took.
func (c *calibrator) run() time.Duration {
	s := time.Now()
	for _, k := range c.keys {
		select {
		case <-c.stop:
			return 0
		default:
		}
		n := c.index[k]
		n.prev.next, n.next.prev = n.next, n.prev
		c.pushTail(n)
		c.sink += c.head.next.key
	}
	return time.Since(s)
}
