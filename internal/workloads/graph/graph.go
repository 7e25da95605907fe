// Package graph models out-of-GPU-memory graph traversal — the workload
// family of the paper's related work ([34] Subway, [39] Ascetic): a BFS
// over a CSR graph whose edge array exceeds GPU memory.
//
// Each level's kernel touches the edge partitions of the active frontier
// (a level-dependent subset of the edge blocks) plus the small frontier
// and visited buffers. Two kinds of application knowledge map onto the
// driver directives:
//
//   - The consumed frontier buffer is dead after every level — a discard
//     target exactly like the paper's intermediate buffers.
//   - Edge partitions are *read-only*, and once their source vertices are
//     exhausted they are never touched again. UVM still swaps them out
//     D2H under pressure (the GPU has no dirty bits, so the driver cannot
//     know the host copy is still valid); either discarding the retired
//     partitions (app knowledge of deadness) or marking the edges
//     read-mostly (no deadness knowledge needed) eliminates those
//     transfers — an instructive equivalence on read-only data.
package graph

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config sizes the traversal.
type Config struct {
	// EdgeBytes is the CSR edge array size (the out-of-core part).
	EdgeBytes units.Size
	// VertexBytes sizes the offsets/visited/frontier buffers (each).
	VertexBytes units.Size
	// LevelFractions is the fraction of edge blocks each BFS level
	// touches — the frontier's expansion and decay. Defaults to a
	// typical small-world profile.
	LevelFractions []float64
	// ScanRate is the kernel's edge-processing rate (bytes/second).
	ScanRate float64
	// ReadMostlyEdges applies the SetReadMostly hint to the edge array
	// instead of relying on discard for retired partitions.
	ReadMostlyEdges bool
}

// DefaultConfig streams a 16 GiB edge array past the 3080 Ti's ~11.8 GB:
// the frontier sweeps through roughly the whole graph once, and the
// exhausted partitions behind it become eviction victims.
func DefaultConfig() Config {
	return Config{
		EdgeBytes:   16 * units.GiB,
		VertexBytes: 256 * units.MiB,
		LevelFractions: []float64{
			0.002, 0.02, 0.10, 0.25, 0.30, 0.20, 0.08, 0.03, 0.01,
		},
		ScanRate: 120e9,
	}
}

// Preset returns a fresh run at the paper's size on the RTX 3080 Ti or,
// with quick, at the scaled-down size of the quick suite and quick service
// jobs, and the GPU the preset runs on.
func Preset(quick bool) (*BFS, gpudev.Profile) {
	g, gpu := &BFS{Config: DefaultConfig()}, gpudev.RTX3080Ti()
	if quick {
		g.EdgeBytes, g.VertexBytes, gpu = 512*units.MiB, 16*units.MiB, gpudev.Generic(384*units.MiB)
	}
	return g, gpu
}

// Footprint is the application's GPU memory consumption.
func (c Config) Footprint() units.Size {
	al := func(n units.Size) units.Size { return units.AlignUp(n, units.BlockSize) }
	return al(c.EdgeBytes) + 4*al(c.VertexBytes)
}

func (c Config) validate() error {
	if c.EdgeBytes == 0 || c.VertexBytes == 0 || len(c.LevelFractions) == 0 || c.ScanRate <= 0 {
		return fmt.Errorf("graph: invalid config %+v", c)
	}
	for _, f := range c.LevelFractions {
		if f < 0 || f > 1 {
			return fmt.Errorf("graph: level fraction %v out of range", f)
		}
	}
	return nil
}

// Run executes the traversal under the given system.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (workloads.Result, error) {
	return workloads.Run(p, sys, &BFS{Config: cfg}, nil)
}

// BFS is one traversal run for workloads.Run: step i is BFS level i.
type BFS struct {
	Config

	sys                                workloads.System
	s                                  *cuda.Stream
	edges, offsets, visited, cur, next *cuda.Buffer
	edgeBlocks, startBlock             int
}

// Name implements workloads.Stepper.
func (g *BFS) Name() string { return "graph" }

// Steps is the number of BFS levels.
func (g *BFS) Steps() int { return len(g.LevelFractions) }

// Setup allocates the CSR graph and the vertex buffers and has the host
// load the graph.
func (g *BFS) Setup(ctx *cuda.Context, _ workloads.Platform, sys workloads.System) error {
	if err := workloads.RequireUVM("graph", sys); err != nil {
		return err
	}
	if err := g.validate(); err != nil {
		return err
	}
	for _, spec := range []struct {
		dst  **cuda.Buffer
		name string
		size units.Size
	}{
		{&g.edges, "edges", g.EdgeBytes},
		{&g.offsets, "offsets", g.VertexBytes},
		{&g.visited, "visited", g.VertexBytes},
		{&g.cur, "frontier-a", g.VertexBytes},
		{&g.next, "frontier-b", g.VertexBytes},
	} {
		b, err := ctx.MallocManaged(spec.name, spec.size)
		if err != nil {
			return err
		}
		*spec.dst = b
	}
	if err := g.edges.HostWrite(0, g.edges.Size()); err != nil {
		return err
	}
	if err := g.offsets.HostWrite(0, g.offsets.Size()); err != nil {
		return err
	}
	g.sys, g.s = sys, ctx.Stream("bfs")
	g.edgeBlocks = units.BlocksIn(g.EdgeBytes)
	return nil
}

// Step runs level i. The frontier sweeps through the edge partitions: each
// level touches the next window of blocks (a Subway-style vertex-grouped
// layout keeps the active set contiguous), and the window behind it — the
// edges of exhausted vertices — is never touched again. Level 0 first
// applies the read-mostly advice when configured.
func (g *BFS) Step(level int) error {
	if level == 0 && g.ReadMostlyEdges && g.sys != workloads.UVMOpt {
		if err := g.s.MemAdviseAll(g.edges, core.AdviseSetReadMostly); err != nil {
			return err
		}
	}
	n := min(max(1, int(g.LevelFractions[level]*float64(g.edgeBlocks))), g.edgeBlocks-g.startBlock)
	if n <= 0 {
		// The sweep has passed the last edge block.
		return nil
	}
	offset := units.Size(g.startBlock) * units.BlockSize
	err := g.s.Launch(cuda.Kernel{
		Name:    fmt.Sprintf("bfs-level-%d", level),
		Compute: sim.TransferTime(uint64(n)*uint64(units.BlockSize), g.ScanRate),
		Accesses: []cuda.Access{
			{Buf: g.cur, Mode: core.Read},
			{Buf: g.offsets, Mode: core.Read},
			{Buf: g.edges, Offset: offset, Length: units.Size(n) * units.BlockSize,
				Mode: core.Read, Scatter: true},
			{Buf: g.visited, Mode: core.ReadWrite},
			{Buf: g.next, Mode: core.Write},
		},
	})
	if err != nil {
		return err
	}
	// The consumed frontier is dead.
	if err := workloads.Discard(g.sys, g.s, g.cur); err != nil {
		return err
	}
	// The window just consumed is retired: its vertices are exhausted and
	// their edges will never be read again. The discard system states that
	// explicitly; the read-mostly variant needs no such knowledge —
	// evicting clean duplicated pages is free anyway.
	if g.sys.UsesDiscard() && !g.ReadMostlyEdges {
		if err := workloads.DiscardRange(g.sys, g.s, g.edges,
			offset, units.Size(n)*units.BlockSize); err != nil {
			return err
		}
	}
	// Re-prefault the next level's frontier buffer (the §4.2 pairing for
	// the lazy flavor).
	if g.sys == workloads.UvmDiscardLazy {
		if err := g.s.PrefetchAll(g.next, cuda.ToGPU); err != nil {
			return err
		}
	}
	g.startBlock += n
	g.cur, g.next = g.next, g.cur
	return nil
}
