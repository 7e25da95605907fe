package experiments

import (
	"strconv"
	"strings"
	"testing"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/radixsort"
)

// faultPlatform is the quick X8 "harsh" configuration: small enough for unit
// tests, hostile enough that every recovery policy (retry, reissue, replay)
// actually fires — radix-sort's fault-driven strip accesses overflow the
// 4-block buffer where a prefetch-heavy workload never would.
func faultPlatform() (workloads.Platform, radixsort.Config) {
	cfg := radixsort.DefaultConfig()
	cfg.DataBytes = 256 * units.MiB
	cfg.StripBytes = 32 * units.MiB
	return workloads.Platform{
		GPU:            gpudev.Generic(768 * units.MiB),
		OversubPercent: 200,
		Faults: &faultinject.Config{
			Seed:              13,
			DMAFailProb:       0.10,
			UnmapFailProb:     0.05,
			FaultBufferBlocks: 4,
		},
	}, cfg
}

// Retry/backoff determinism across cell workers: the same workload under
// the same seeded fault schedule must report byte-identical metrics whether
// its cells run on one worker or on 8. Each run's driver builds a fresh
// Injector from the shared schedule, so worker scheduling cannot perturb
// the fault stream.
func TestFaultScheduleDeterministicAcrossRunners(t *testing.T) {
	p, cfg := faultPlatform()
	// Several copies of the same run, so the 8-worker pass genuinely
	// overlaps identical fault-injected runs on different workers.
	const copies = 6
	probe := func() string {
		tab := &Table{ID: "XD", Title: "determinism probe",
			Header: []string{"runtime", "traffic", "retries", "reissues", "replays", "degraded"}}
		tab.Rows = make([][]string, copies)
		err := runCells(Options{}, p, copies, func(p workloads.Platform, i int) error {
			r, err := radixsort.Run(p, workloads.UvmDiscard, cfg)
			if err != nil {
				return err
			}
			tab.Rows[i] = []string{r.Runtime.String(), fmtGB(r.TrafficBytes),
				fmtInt(r.MigrateRetries), fmtInt(r.UnmapRetries),
				fmtInt(r.FaultReplays), fmtInt(r.DegradedXfers)}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every copy must also have reported the same metrics as the
		// first: same seed + same schedule ⇒ the same fault stream, run
		// after run.
		for i, row := range tab.Rows {
			if got, want := strings.Join(row, " "), strings.Join(tab.Rows[0], " "); got != want {
				t.Errorf("run %d reported %s, run 0 %s", i, got, want)
			}
		}
		return tab.String()
	}
	setProcs(t, 1)
	serial := probe()
	setProcs(t, 8)
	parallel := probe()
	if serial != parallel {
		t.Errorf("fault-injected runs diverge across cell workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			serial, parallel)
	}
}

// The harsh schedule must actually exercise the recovery paths — a schedule
// that injects nothing would make the determinism test vacuous.
func TestFaultScheduleFires(t *testing.T) {
	p, cfg := faultPlatform()
	r, err := radixsort.Run(p, workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MigrateRetries == 0 {
		t.Error("harsh schedule produced no migrate retries")
	}
	if r.UnmapRetries == 0 {
		t.Error("harsh schedule produced no unmap reissues")
	}
	if r.FaultReplays == 0 {
		t.Error("harsh schedule produced no replayed fault rounds")
	}
	t.Logf("retries=%d reissues=%d replays=%d degraded=%d",
		r.MigrateRetries, r.UnmapRetries, r.FaultReplays, r.DegradedXfers)
}

// With no schedule attached the resilience counters stay zero — the fault
// machinery is invisible to fault-free baselines.
func TestNoScheduleLeavesBaselinesUntouched(t *testing.T) {
	p, cfg := faultPlatform()
	p.Faults = nil
	r, err := radixsort.Run(p, workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MigrateRetries != 0 || r.UnmapRetries != 0 || r.FaultReplays != 0 ||
		r.DegradedXfers != 0 || r.PoisonedChunks != 0 {
		t.Errorf("fault-free run reported resilience activity: %+v", r)
	}
}

func fmtInt(v int64) string { return strconv.FormatInt(v, 10) }
