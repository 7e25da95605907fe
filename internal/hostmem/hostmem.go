// Package hostmem models the host (CPU) DRAM side of the unified address
// space. The UVM driver uses host memory as the backing store / swap space
// for GPU memory (§2.2): pages migrated to the GPU keep their host pages
// *pinned*, and eviction swaps GPU chunks back into those pinned pages.
//
// The model tracks capacity and pinned/resident byte counts so experiments
// can assert the paper's pinning behaviour and so misconfigured runs (host
// swap exceeding host DRAM) fail loudly instead of silently.
package hostmem

import (
	"fmt"

	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
)

// Host models host DRAM.
type Host struct {
	capacity units.Size
	resident units.Size // bytes of CPU-resident UVM data
	pinned   units.Size // subset of capacity pinned for GPU-mapped buffers
	// faultCost is the CPU-side cost of a minor page fault that maps a
	// zero-filled page (first touch, §2.2 step 1).
	faultCost sim.Time
}

// New returns a host with the given DRAM capacity. The paper's platform has
// 64 GB of DDR4-3200.
func New(capacity units.Size) *Host {
	return &Host{capacity: capacity, faultCost: sim.Micros(1.2)}
}

// Default returns the paper's evaluation host: 64 GB DDR4-3200.
func Default() *Host { return New(64 * units.GiB) }

// Capacity returns total host DRAM.
func (h *Host) Capacity() units.Size { return h.capacity }

// Resident returns bytes of UVM data currently CPU-resident.
func (h *Host) Resident() units.Size { return h.resident }

// Pinned returns bytes currently pinned (CPU pages backing GPU-mapped
// buffers plus staging for migrations).
func (h *Host) Pinned() units.Size { return h.pinned }

// FaultCost returns the CPU minor-fault cost for one first-touch page
// population.
func (h *Host) FaultCost() sim.Time { return h.faultCost }

// Reserve accounts n bytes of new CPU-resident data (zero-filled pages on
// first touch, or the destination of a D2H migration). It fails when host
// DRAM is exhausted.
func (h *Host) Reserve(n units.Size) error {
	if h.resident+n > h.capacity {
		return fmt.Errorf("hostmem: out of host memory: resident %s + %s > capacity %s",
			units.Format(h.resident), units.Format(n), units.Format(h.capacity))
	}
	h.resident += n
	return nil
}

// Release frees n bytes of CPU-resident data.
func (h *Host) Release(n units.Size) {
	if n > h.resident {
		panic(fmt.Sprintf("hostmem: releasing %s with only %s resident",
			units.Format(n), units.Format(h.resident)))
	}
	h.resident -= n
}

// Pin marks n bytes of resident data as pinned (the buffer is mapped on a
// GPU; §2.2 step 2 keeps CPU pages pinned during GPU residency).
func (h *Host) Pin(n units.Size) {
	h.pinned += n
	if h.pinned > h.capacity {
		panic(fmt.Sprintf("hostmem: pinned %s exceeds capacity %s",
			units.Format(h.pinned), units.Format(h.capacity)))
	}
}

// Unpin releases n bytes of pinned accounting.
func (h *Host) Unpin(n units.Size) {
	if n > h.pinned {
		panic(fmt.Sprintf("hostmem: unpinning %s with only %s pinned",
			units.Format(n), units.Format(h.pinned)))
	}
	h.pinned -= n
}
