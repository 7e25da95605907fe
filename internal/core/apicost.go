package core

import (
	"math"
	"sort"

	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
)

// CostCurve maps a buffer size to a host-side API cost by piecewise-linear
// interpolation in (log2 size, cost) space between calibration anchors.
// Below the first anchor the cost is clamped to the first anchor's value
// (small calls are dominated by fixed overhead); above the last anchor the
// final segment's per-byte slope extrapolates linearly in bytes.
type CostCurve struct {
	name    string
	anchors []costAnchor
}

type costAnchor struct {
	bytes units.Size
	cost  sim.Time
}

// NewCostCurve builds a curve from (size, cost) anchors; anchors need not
// be sorted but sizes must be distinct and positive.
func NewCostCurve(name string, anchors map[units.Size]sim.Time) *CostCurve {
	c := &CostCurve{name: name}
	for b, t := range anchors {
		if b == 0 {
			panic("core: zero-size cost anchor")
		}
		c.anchors = append(c.anchors, costAnchor{b, t})
	}
	if len(c.anchors) < 2 {
		panic("core: cost curve needs at least two anchors")
	}
	sort.Slice(c.anchors, func(i, j int) bool { return c.anchors[i].bytes < c.anchors[j].bytes })
	return c
}

// Name returns the curve's API name.
func (c *CostCurve) Name() string { return c.name }

// Eval returns the modeled cost of one API call covering n bytes.
func (c *CostCurve) Eval(n units.Size) sim.Time {
	if n == 0 {
		return 0
	}
	first := c.anchors[0]
	if n <= first.bytes {
		return first.cost
	}
	last := c.anchors[len(c.anchors)-1]
	if n >= last.bytes {
		// Linear-in-bytes extrapolation using the final segment's slope.
		prev := c.anchors[len(c.anchors)-2]
		slope := float64(last.cost-prev.cost) / float64(last.bytes-prev.bytes)
		extra := slope * float64(n-last.bytes)
		if extra < 0 {
			extra = 0
		}
		return last.cost + sim.Time(extra)
	}
	// Interpolate in log2(bytes).
	i := sort.Search(len(c.anchors), func(i int) bool { return c.anchors[i].bytes >= n })
	lo, hi := c.anchors[i-1], c.anchors[i]
	f := (math.Log2(float64(n)) - math.Log2(float64(lo.bytes))) /
		(math.Log2(float64(hi.bytes)) - math.Log2(float64(lo.bytes)))
	return lo.cost + sim.Time(f*float64(hi.cost-lo.cost))
}

// APICosts bundles the host-side cost models for the CUDA calls the paper
// measures in Table 2, plus the calls the runtime needs that Table 2 does
// not cover. Anchor values are the paper's measurements on the 3080 Ti
// platform.
type APICosts struct {
	// Malloc is cudaMalloc (device buffer allocation).
	Malloc *CostCurve
	// Free is cudaFree.
	Free *CostCurve
	// Discard is the eager UvmDiscard call (PTE destruction included in
	// the measured call cost).
	Discard *CostCurve
	// DiscardLazy is UvmDiscardLazy: clearing software dirty bits only,
	// roughly an order of magnitude cheaper than Discard.
	DiscardLazy *CostCurve
	// MallocManaged is cudaMallocManaged: VA-space reservation only.
	MallocManaged *CostCurve
	// PrefetchIssue is the host-side cost to enqueue one
	// cudaMemPrefetchAsync (the transfer itself is asynchronous).
	PrefetchIssue sim.Time
	// KernelLaunch is the host-side cost to enqueue a kernel.
	KernelLaunch sim.Time
}

// apiCosts is the one instance every driver's Costs returns. CostCurves are
// immutable after NewCostCurve and APICosts fields are never written
// post-construction, so sharing is safe; it avoids rebuilding (and
// re-sorting) the Table 2 anchor tables per run, which experiment sweeps
// would otherwise pay for each of the thousands of drivers they build.
// DefaultAPICosts itself still returns a fresh value so external callers
// that do want a private copy keep getting one.
var apiCosts = DefaultAPICosts()

// DefaultAPICosts returns curves anchored on Table 2.
func DefaultAPICosts() *APICosts {
	return &APICosts{
		Malloc: NewCostCurve("cudaMalloc", map[units.Size]sim.Time{
			2 * units.MiB:   sim.Micros(48),
			8 * units.MiB:   sim.Micros(184),
			32 * units.MiB:  sim.Micros(726),
			128 * units.MiB: sim.Micros(939),
		}),
		Free: NewCostCurve("cudaFree", map[units.Size]sim.Time{
			2 * units.MiB:   sim.Micros(32),
			8 * units.MiB:   sim.Micros(38),
			32 * units.MiB:  sim.Micros(63),
			128 * units.MiB: sim.Micros(1184),
		}),
		Discard: NewCostCurve("UvmDiscard", map[units.Size]sim.Time{
			2 * units.MiB:   sim.Micros(4),
			8 * units.MiB:   sim.Micros(7),
			32 * units.MiB:  sim.Micros(20),
			128 * units.MiB: sim.Micros(70),
		}),
		DiscardLazy: NewCostCurve("UvmDiscardLazy", map[units.Size]sim.Time{
			2 * units.MiB:   sim.Micros(0.6),
			8 * units.MiB:   sim.Micros(0.9),
			32 * units.MiB:  sim.Micros(2.2),
			128 * units.MiB: sim.Micros(7),
		}),
		MallocManaged: NewCostCurve("cudaMallocManaged", map[units.Size]sim.Time{
			2 * units.MiB: sim.Micros(9),
			units.GiB:     sim.Micros(30),
		}),
		PrefetchIssue: sim.Micros(6),
		KernelLaunch:  sim.Micros(7),
	}
}
