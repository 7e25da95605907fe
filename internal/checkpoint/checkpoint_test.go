package checkpoint_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
)

// smallCfg is 8 windows of 64 MiB under 2x oversubscription — enough
// eviction pressure for the snapshot to carry non-trivial queue state.
func smallCfg() fir.Config {
	return fir.Config{
		InputBytes:  512 * units.MiB,
		WindowBytes: 64 * units.MiB,
		FilterRate:  28e9,
	}
}

func plat() workloads.Platform {
	return workloads.Platform{
		GPU:            gpudev.Generic(1536 * units.MiB),
		Gen:            pcie.Gen4,
		OversubPercent: 200,
	}
}

const sysUnderTest = workloads.UvmDiscard

// reference runs FIR uninterrupted, no checkpointing at all.
func reference(t *testing.T) workloads.Result {
	t.Helper()
	ref, err := fir.Run(plat(), sysUnderTest, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// captureAll runs with capture after every step and returns the saved blobs.
func captureAll(t *testing.T, ref workloads.Result) [][]byte {
	t.Helper()
	var blobs [][]byte
	env := &checkpoint.Env{
		Every: 1,
		Save: func(blob []byte) error {
			blobs = append(blobs, bytes.Clone(blob))
			return nil
		},
	}
	r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, ref) {
		t.Fatalf("capturing perturbed the run:\n got %+v\nwant %+v", r, ref)
	}
	if env.Stats.Captures != 8 || len(blobs) != 8 {
		t.Fatalf("captures = %d, blobs = %d, want 8", env.Stats.Captures, len(blobs))
	}
	if env.Stats.SaveErrors != 0 || env.Stats.Resumed || env.Stats.Rejected {
		t.Fatalf("unexpected stats %+v", env.Stats)
	}
	return blobs
}

func TestResumeByteIdentical(t *testing.T) {
	ref := reference(t)
	blobs := captureAll(t, ref)
	// Resume from every intermediate snapshot; each must reproduce the
	// uninterrupted run's result exactly and re-execute only the remainder.
	for i, blob := range blobs {
		env := &checkpoint.Env{Restore: blob}
		r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Errorf("resume from snapshot %d diverged:\n got %+v\nwant %+v", i, r, ref)
		}
		if !env.Stats.Resumed || env.Stats.ResumedFrom != i+1 {
			t.Errorf("snapshot %d: stats %+v, want resume from step %d", i, env.Stats, i+1)
		}
		if want := 8 - (i + 1); env.Stats.StepsExecuted != want {
			t.Errorf("snapshot %d: executed %d steps, want %d", i, env.Stats.StepsExecuted, want)
		}
	}
}

func TestCorruptRestoreFallsBackToFreshRun(t *testing.T) {
	ref := reference(t)
	blobs := captureAll(t, ref)
	mut := bytes.Clone(blobs[3])
	mut[len(mut)/2] ^= 0x40

	var reason string
	env := &checkpoint.Env{Restore: mut, OnReject: func(r string) { reason = r }}
	r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Stats.Rejected || env.Stats.Resumed {
		t.Fatalf("stats %+v, want rejected and not resumed", env.Stats)
	}
	if reason == "" {
		t.Error("OnReject not told why")
	}
	if env.Stats.StepsExecuted != 8 {
		t.Errorf("fallback executed %d steps, want all 8", env.Stats.StepsExecuted)
	}
	if !reflect.DeepEqual(r, ref) {
		t.Errorf("fallback run diverged:\n got %+v\nwant %+v", r, ref)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	ref := reference(t)
	blobs := captureAll(t, ref)
	// Same snapshot, different workload config: must be rejected, and the
	// fallback must produce the other config's correct result.
	cfg := smallCfg()
	cfg.FilterRate = 14e9
	want, err := fir.Run(plat(), sysUnderTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := &checkpoint.Env{Restore: blobs[2]}
	r, err := fir.RunCheckpointed(plat(), sysUnderTest, cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Stats.Rejected {
		t.Fatal("foreign snapshot accepted")
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("fallback diverged:\n got %+v\nwant %+v", r, want)
	}
}

func TestCaptureRefusesTracing(t *testing.T) {
	// Tracing state is not serialized, so captures must refuse rather than
	// produce snapshots that would resume wrong; the run itself still works.
	p := plat()
	p.TraceRMT = true
	env := &checkpoint.Env{Every: 1, Save: func([]byte) error { return nil }}
	if _, err := fir.RunCheckpointed(p, sysUnderTest, smallCfg(), env); err != nil {
		t.Fatal(err)
	}
	if env.Stats.Captures != 0 || env.Stats.SaveErrors != 8 {
		t.Fatalf("stats %+v, want 0 captures and 8 refusals", env.Stats)
	}
}

func TestStepBeyondEndRejected(t *testing.T) {
	ref := reference(t)
	blobs := captureAll(t, ref)
	snap, err := checkpoint.DecodeSnapshot(blobs[7])
	if err != nil {
		t.Fatal(err)
	}
	snap.Step = 1 << 40
	blob, err := checkpoint.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	env := &checkpoint.Env{Restore: blob}
	r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Stats.Rejected {
		t.Fatal("absurd step accepted")
	}
	if !reflect.DeepEqual(r, ref) {
		t.Errorf("fallback diverged:\n got %+v\nwant %+v", r, ref)
	}
}

// Restore refuses a block value that does not fit the block's field instead
// of truncating it into a different, plausible value.
func TestOutOfRangeBlockFieldsRejected(t *testing.T) {
	ref := reference(t)
	blobs := captureAll(t, ref)
	for name, corrupt := range map[string]func(*checkpoint.BlockState){
		"gpu":         func(b *checkpoint.BlockState) { b.GPU = 1 << 32 },
		"remote accs": func(b *checkpoint.BlockState) { b.RemoteAccs = 1 << 32 },
		"live pages":  func(b *checkpoint.BlockState) { b.LivePages = 1<<16 + 1 },
	} {
		snap, err := checkpoint.DecodeSnapshot(blobs[3])
		if err != nil {
			t.Fatal(err)
		}
		corrupt(&snap.Allocs[0].Blocks[0])
		blob, err := checkpoint.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		env := &checkpoint.Env{Restore: blob}
		r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
		if err != nil {
			t.Fatal(err)
		}
		if !env.Stats.Rejected {
			t.Errorf("%s: out-of-range value accepted", name)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Errorf("%s: fallback diverged:\n got %+v\nwant %+v", name, r, ref)
		}
	}
}

// TestResumeCommittedSnapshot resumes testdata/fir-step4.ckpt, a snapshot an
// earlier build wrote for smallCfg() on plat() after step 4. It pins the
// snapshot format and FIR's digest inputs, so snapshots already on disk (a
// uvmsimd -data-dir) still resume after an upgrade.
func TestResumeCommittedSnapshot(t *testing.T) {
	blob, err := os.ReadFile("testdata/fir-step4.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	var reason string
	env := &checkpoint.Env{Restore: blob, OnReject: func(r string) { reason = r }}
	r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Stats.Resumed || env.Stats.ResumedFrom != 4 || env.Stats.StepsExecuted != 4 {
		t.Fatalf("stats %+v (reject reason %q), want a resume from step 4", env.Stats, reason)
	}
	if ref := reference(t); !reflect.DeepEqual(r, ref) {
		t.Errorf("resumed run diverged:\n got %+v\nwant %+v", r, ref)
	}
}
