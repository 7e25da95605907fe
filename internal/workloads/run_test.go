package workloads_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/metrics"
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

// cut runs the first steps of a radix sort and, when fail is set, fails
// after the last of them instead of finishing.
type cut struct {
	*radixsort.Sort
	steps int
	fail  bool
}

var errCut = errors.New("cut")

func (c *cut) Steps() int { return c.steps + 1 }

func (c *cut) Step(i int) error {
	if i == c.steps {
		if c.fail {
			return errCut
		}
		return nil
	}
	return c.Sort.Step(i)
}

// counts reads every counter of m through the Collector's exported
// readers.
func counts(m *metrics.Collector) []int64 {
	var out []int64
	for dir := metrics.H2D; dir <= metrics.D2H; dir++ {
		for cause := metrics.CauseFault; cause <= metrics.CauseRemote; cause++ {
			out = append(out, int64(m.Bytes(dir, cause)), m.Ops(dir, cause))
		}
	}
	for src := metrics.EvictFree; src <= metrics.EvictLRU; src++ {
		out = append(out, m.Evictions(src))
	}
	h2d, d2h := m.Saved()
	peerBytes, peerOps := m.Peer()
	batches, faulted := m.FaultBatches()
	zeroBlocks, zeroPages := m.ZeroFills()
	discards, discarded := m.Discards()
	degBlocks, degBytes := m.Degraded()
	poisoned, recovered, lost := m.Poisoned()
	return append(out, int64(h2d), int64(d2h), int64(peerBytes), peerOps, int64(m.PeerSaved()),
		batches, faulted, zeroBlocks, zeroPages, m.Unmaps(), m.Maps(), discards, discarded,
		m.MigrateRetries(), m.UnmapRetries(), m.FaultReplays(), degBlocks, int64(degBytes),
		poisoned, int64(recovered), int64(lost))
}

// A run that fails leaves every count it made in the collector the caller
// supplied, as a finished run does: a service merges a failed run's
// collector into its totals as it stands.
func TestFailedRunKeepsItsCounts(t *testing.T) {
	run := func(fail bool) []int64 {
		rs, gpu := radixsort.Preset(true)
		m := metrics.New()
		p := workloads.Platform{GPU: gpu, OversubPercent: 200, Metrics: m}
		c := &cut{Sort: rs, steps: 2, fail: fail}
		var want error
		if fail {
			want = errCut
		}
		if _, err := workloads.Run(p, workloads.UvmDiscard, c, nil); !errors.Is(err, want) {
			t.Fatalf("fail=%v: err = %v, want %v", fail, err, want)
		}
		if m.Traffic() == 0 {
			t.Fatal("the steps moved no data")
		}
		return counts(m)
	}
	failed, finished := run(true), run(false)
	if !reflect.DeepEqual(failed, finished) {
		t.Errorf("failed run's collector holds\n%v\nthe same steps finished hold\n%v", failed, finished)
	}
}
