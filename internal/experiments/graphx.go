package experiments

import (
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/graph"
)

func init() {
	register(Experiment{ID: "X7", Name: "graph-traversal", Run: runGraphTraversal})
}

// runGraphTraversal measures the out-of-core BFS workload from the paper's
// related-work family (Subway [34], Ascetic [39]): a 16 GiB edge array
// sweeps past the GPU. Plain UVM evicts the exhausted, *read-only* edge
// partitions D2H — the GPU has no dirty bits, so the driver cannot know
// the host copy is still valid. Discarding the retired partitions (app
// knowledge of deadness) and marking the edges read-mostly (no deadness
// knowledge at all) both eliminate exactly those transfers — an
// instructive equivalence on read-only data that does not hold for the
// paper's writable intermediates.
func runGraphTraversal(o Options) (*Table, error) {
	g, gpu := graph.Preset(o.Quick)
	p := workloads.DefaultPlatform()
	p.GPU = gpu
	p = o.arm(p)
	t := &Table{
		ID:    "X7",
		Title: "Extension: out-of-core graph traversal (read-only edge partitions)",
		Header: []string{"Strategy", "Traffic GB", "H2D GB", "D2H GB",
			"Saved D2H GB", "Runtime"},
	}
	for _, spec := range []struct {
		name string
		sys  workloads.System
		rm   bool
	}{
		{"plain UVM", workloads.UVMOpt, false},
		{"discard retired partitions", workloads.UvmDiscard, false},
		{"read-mostly edges", workloads.UvmDiscard, true},
	} {
		c := g.Config
		c.ReadMostlyEdges = spec.rm
		r, err := graph.Run(p, spec.sys, c)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.name, fmtGB(r.TrafficBytes), fmtGB(r.H2DBytes),
			fmtGB(r.D2HBytes), fmtGB(r.SavedD2H), r.Runtime.String())
	}
	t.Notes = append(t.Notes,
		"UVM swaps exhausted read-only partitions out because the GPU has no dirty bits (§5)",
		"discard needs the app to know the partitions are dead; read-mostly removes the same transfers with placement knowledge only")
	return t, nil
}
