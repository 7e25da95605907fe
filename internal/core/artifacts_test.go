package core_test

import (
	"testing"

	"uvmdiscard/internal/experiments"
)

// TestEveryArtifactUnderStrideOneSanitizer runs every registered artifact in
// quick mode inside the core test binary, whose TestMain turns the
// sanitizer on at stride 1 for every driver. So the full invariant sweep,
// resident-run check included, runs after every driver operation of every
// artifact's simulations, not only after every 61st as in the experiments
// test binary. A violation panics inside the run and fails the artifact.
func TestEveryArtifactUnderStrideOneSanitizer(t *testing.T) {
	for _, e := range experiments.All() {
		if _, err := e.Run(experiments.Options{Quick: true}); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
	}
}
