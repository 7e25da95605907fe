// Package sched seeds queuestate violations: it is not internal/core or
// internal/gpudev, yet pokes the device queues directly.
package sched

import "uvmdiscard/internal/gpudev"

// Steal grabs a chunk straight off the free queue.
func Steal(d *gpudev.Device) *gpudev.Chunk {
	return d.PopFree() // want "queue mutator PopFree outside"
}

// Shuffle moves a chunk between queues behind the driver's back.
func Shuffle(d *gpudev.Device, c *gpudev.Chunk) {
	d.Detach(c)        // want "queue mutator Detach outside"
	d.PushDiscarded(c) // want "queue mutator PushDiscarded outside"
}

// Recycle bypasses eviction accounting entirely.
func Recycle(d *gpudev.Device) {
	if c := d.PopDiscarded(); c != nil { // want "queue mutator PopDiscarded outside"
		d.PushFree(c) // want "queue mutator PushFree outside"
	}
}

// Quarantine retires a chunk behind the driver's back: the poison policy
// (which block loses its data, and how the loss is accounted) belongs to
// internal/core.
func Quarantine(d *gpudev.Device, c *gpudev.Chunk) {
	d.PushPoisoned(c) // want "queue mutator PushPoisoned outside"
}

// Promote relinks a stretch of the used queue behind the driver's back:
// only the driver knows the stretch is contiguous (a resident run).
func Promote(d *gpudev.Device, first, last *gpudev.Chunk) {
	d.MoveStretch(first, last, 2, gpudev.QueueUsed, nil) // want "queue mutator MoveStretch outside"
}

// Bury moves a stretch to the discarded queue behind the driver's back:
// only the driver knows the stretch is a resident run it may discard.
func Bury(d *gpudev.Device, cs []*gpudev.Chunk) {
	d.MoveStretch(cs[0], cs[len(cs)-1], len(cs), gpudev.QueueDiscarded, // want "queue mutator MoveStretch outside"
		func(i int) *gpudev.Chunk { return cs[i] })
}

// Peek only reads; QueueLen, LRUVictim and Next are not mutators.
func Peek(d *gpudev.Device) int {
	if c := d.LRUVictim(); c != nil {
		_ = d.Next(c)
	}
	return d.QueueLen(gpudev.QueueFree)
}
