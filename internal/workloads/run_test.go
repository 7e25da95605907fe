package workloads_test

import (
	"strings"
	"testing"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/radixsort"
)

// spy counts the runner's calls into a radix-sort run.
type spy struct {
	*radixsort.Sort
	setups, steps int
}

func (s *spy) Setup(ctx *cuda.Context, p workloads.Platform, sys workloads.System) error {
	s.setups++
	return s.Sort.Setup(ctx, p, sys)
}

func (s *spy) Step(i int) error {
	s.steps++
	return s.Sort.Step(i)
}

func TestRunRejectsCheckpointWithoutResume(t *testing.T) {
	rs, gpu := radixsort.Preset(true)
	p := workloads.Platform{GPU: gpu, OversubPercent: 200}

	s := &spy{Sort: rs}
	env := &checkpoint.Env{Every: 1, Save: func([]byte) error { return nil }}
	_, err := workloads.Run(p, workloads.UvmDiscard, s, env)
	if err == nil || !strings.Contains(err.Error(), "radixsort") {
		t.Fatalf("err = %v, want a refusal naming radixsort", err)
	}
	if s.setups != 0 || s.steps != 0 || env.Stats != (checkpoint.Stats{}) {
		t.Errorf("refused run still simulated: %d setups, %d steps, stats %+v", s.setups, s.steps, env.Stats)
	}

	// Without an env the same workload runs, so the spy does see the
	// runner's calls.
	rs, _ = radixsort.Preset(true)
	s = &spy{Sort: rs}
	if _, err := workloads.Run(p, workloads.UvmDiscard, s, nil); err != nil {
		t.Fatal(err)
	}
	if s.setups != 1 || s.steps != s.Steps() || s.steps == 0 {
		t.Errorf("%d setups, %d of %d steps", s.setups, s.steps, s.Steps())
	}
}
