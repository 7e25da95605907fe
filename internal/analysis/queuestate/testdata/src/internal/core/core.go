// Package core stands in for the real driver: the queue-discipline owner,
// where mutator calls are legal.
package core

import "uvmdiscard/internal/gpudev"

// Reclaim is allowed to drive the queues directly.
func Reclaim(d *gpudev.Device) {
	if c := d.PopFree(); c != nil {
		d.PushUnused(c)
	}
	if c := d.PopUnused(); c != nil {
		d.PushFree(c)
	}
	if c := d.LRUVictim(); c != nil {
		d.MoveStretch(c, c, 1, gpudev.QueueDiscarded, func(int) *gpudev.Chunk { return c })
	}
}
