package catalog

import (
	"slices"
	"testing"
)

func TestLookup(t *testing.T) {
	for name, want := range map[string]string{
		"fir": "fir", "FIR": "fir",
		"radixsort": "radixsort", "radix": "radixsort",
		"hashjoin": "hashjoin", "Hash": "hashjoin",
		"graph": "graph", "bfs": "graph",
	} {
		w, err := Lookup(name)
		if err != nil || w.Name != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", name, w.Name, err, want)
		}
	}
	for _, bad := range []string{"", "spin", "dl", "radix-sort"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) accepted", bad)
		}
	}
	if got := Names(); !slices.Equal(got, []string{"fir", "radixsort", "hashjoin", "graph"}) {
		t.Errorf("Names() = %v", got)
	}
}

func TestPresets(t *testing.T) {
	for _, w := range all {
		full, fullGPU := w.New(false)
		quick, quickGPU := w.New(true)
		if full.Name() != w.Name || quick.Name() != w.Name {
			t.Errorf("%s: steppers named %q and %q", w.Name, full.Name(), quick.Name())
		}
		if quick.Footprint() >= full.Footprint() || quickGPU.MemoryBytes >= fullGPU.MemoryBytes {
			t.Errorf("%s: quick preset is not smaller than the full one", w.Name)
		}
		if got, want := w.Resumable(), w.Name == "fir"; got != want {
			t.Errorf("%s: Resumable() = %v, want %v", w.Name, got, want)
		}
	}
}
