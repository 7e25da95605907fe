package cuda

import (
	"fmt"
	"slices"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
)

// Access declares one memory range a kernel touches and how — the
// block-granular access trace the simulated driver sees instead of real
// loads and stores.
type Access struct {
	// Buf is the managed buffer accessed.
	Buf *Buffer
	// Offset and Length select the range; a zero Length means the whole
	// buffer.
	Offset, Length units.Size
	// Mode says whether the kernel consumes the range's prior contents
	// (Read/ReadWrite) or overwrites without reading (Write).
	Mode core.AccessMode
	// Passes is how many times the kernel sweeps the range; >1 models
	// kernels that revisit data and thrash when the range exceeds GPU
	// memory (§7.3). Zero means one pass.
	Passes int
	// Scatter randomizes the block visit order within each pass,
	// modeling non-streaming access ("the GPU does not follow a
	// deterministic pattern to access parallel columns of data").
	Scatter bool
}

// Kernel is one device kernel launch: a pure compute duration plus the
// access trace that generates faults/migrations, and an optional host-side
// functional payload for examples that compute real results.
type Kernel struct {
	// Name appears in errors and traces.
	Name string
	// GPU selects the device the kernel runs on (multi-GPU systems);
	// zero is the primary GPU.
	GPU int
	// Compute is the kernel's pure execution time with all data local.
	Compute sim.Time
	// Accesses is the ordered access trace.
	Accesses []Access
	// Fn, if set, runs after the kernel's memory accesses are simulated;
	// it should read/write the touched buffers' Data().
	Fn func()
}

// Launch enqueues the kernel on the stream. Fault servicing serializes with
// kernel execution — GPU page faults "significantly hinder the
// thread-parallelism of GPU kernels" (§2.1) — so the kernel occupies the
// compute engine for its compute time after all its access stalls resolve.
func (s *Stream) Launch(k Kernel) error {
	costs := s.ctx.drv.Costs()
	start := s.ready(costs.KernelLaunch)
	s.ctx.drv.AddAPITime("kernelLaunch", costs.KernelLaunch)
	if k.GPU < 0 || k.GPU >= s.ctx.NumGPUs() {
		return fmt.Errorf("cuda: kernel %s targets GPU %d of %d", k.Name, k.GPU, s.ctx.NumGPUs())
	}

	cur := start
	for _, acc := range k.Accesses {
		length := acc.Length
		if length == 0 {
			length = acc.Buf.Size() - acc.Offset
		}
		first, last, err := acc.Buf.alloc.BlockSpan(acc.Offset, length, false)
		if err != nil {
			return fmt.Errorf("cuda: kernel %s: %w", k.Name, err)
		}
		passes := acc.Passes
		if passes <= 0 {
			passes = 1
		}
		for p := 0; p < passes; p++ {
			var order []int
			if acc.Scatter {
				s.ctx.orderScratch = shuffleSpanInto(s.ctx.rng, s.ctx.orderScratch[:0], first, last)
				order = s.ctx.orderScratch
			}
			done, err := s.ctx.drv.GPUAccessOn(k.GPU, acc.Buf.alloc, acc.Offset, length, order, acc.Mode, cur)
			if err != nil {
				return fmt.Errorf("cuda: kernel %s: %w", k.Name, err)
			}
			cur = done
		}
	}

	// Each GPU's compute engine is exclusive: concurrent kernels on the
	// same device serialize here; kernels on different GPUs overlap.
	_, end := s.ctx.computes[k.GPU].Reserve(cur, k.Compute)
	s.tail = end
	if k.Fn != nil {
		k.Fn()
	}
	return nil
}

// shuffleSpanInto appends the block indexes first..last to dst and
// Fisher-Yates-shuffles them in place, drawing the exact Intn sequence
// RNG.Perm draws, so a pass visits the span in the order a Perm of it
// gives, without allocating a permutation per pass.
func shuffleSpanInto(rng *sim.RNG, dst []int, first, last int) []int {
	dst = slices.Grow(dst, last-first+1) // one allocation at most, not a growth chain
	for i := first; i <= last; i++ {
		dst = append(dst, i)
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// ComputeForFlops converts a floating-point operation count into a compute
// duration on this context's GPU.
func (c *Context) ComputeForFlops(flops float64) sim.Time {
	tflops := c.drv.Device().Profile().ComputeTFLOPS
	return sim.Time(flops / (tflops * 1e12) * float64(sim.Second))
}

// ComputeForBytes converts a local-memory byte volume into a compute
// duration at the GPU's DRAM bandwidth (for bandwidth-bound kernels).
func (c *Context) ComputeForBytes(bytes float64) sim.Time {
	bw := c.drv.Device().Profile().LocalBandwidth
	return sim.Time(bytes / bw * float64(sim.Second))
}
