// Package catalog is the one name lookup for the step workloads: the names
// and aliases uvmsim, rmtchar and the uvmsimd service accept, each mapped
// to a fresh workloads.Stepper at the workload's full or quick preset.
package catalog

import (
	"fmt"
	"slices"
	"strings"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
	"uvmdiscard/internal/workloads/graph"
	"uvmdiscard/internal/workloads/hashjoin"
	"uvmdiscard/internal/workloads/radixsort"
)

// Workload is one named step workload.
type Workload struct {
	// Name is the canonical name.
	Name    string
	aliases []string
	preset  func(quick bool) (workloads.Stepper, gpudev.Profile)
}

var all = []Workload{
	{"fir", nil, func(q bool) (workloads.Stepper, gpudev.Profile) { return fir.Preset(q) }},
	{"radixsort", []string{"radix"}, func(q bool) (workloads.Stepper, gpudev.Profile) { return radixsort.Preset(q) }},
	{"hashjoin", []string{"hash"}, func(q bool) (workloads.Stepper, gpudev.Profile) { return hashjoin.Preset(q) }},
	{"graph", []string{"bfs"}, func(q bool) (workloads.Stepper, gpudev.Profile) { return graph.Preset(q) }},
}

// Names lists the canonical names.
func Names() []string {
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// Lookup finds a workload by canonical name or alias, ignoring case.
func Lookup(name string) (Workload, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, w := range all {
		if key == w.Name || slices.Contains(w.aliases, key) {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(Names(), ", "))
}

// New returns a fresh run at the full (paper) or quick preset and its GPU.
func (w Workload) New(quick bool) (workloads.Stepper, gpudev.Profile) { return w.preset(quick) }

// Resumable reports whether w's runs can checkpoint (are Resumers).
func (w Workload) Resumable() bool {
	s, _ := w.New(true)
	_, ok := s.(workloads.Resumer)
	return ok
}
