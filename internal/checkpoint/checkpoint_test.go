package checkpoint_test

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
)

// smallCfg is 8 windows of 64 MiB under 2x oversubscription — enough
// eviction pressure that a resume must rebuild non-trivial queue state.
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

// reference runs FIR uninterrupted on p, no checkpointing at all.
func reference(t *testing.T, p workloads.Platform) workloads.Result {
	t.Helper()
	ref, err := fir.Run(p, sysUnderTest, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// saving returns an env that saves after every step and resumes from blob
// (none when nil).
func saving(blob []byte) *checkpoint.Env {
	return &checkpoint.Env{Restore: blob, Every: 1, Save: func([]byte) error { return nil }}
}

// captureAll runs on p with a save after every step and returns the saved
// blobs.
func captureAll(t *testing.T, p workloads.Platform, ref workloads.Result) [][]byte {
	t.Helper()
	var blobs [][]byte
	env := &checkpoint.Env{
		Every: 1,
		Save: func(blob []byte) error {
			blobs = append(blobs, bytes.Clone(blob))
			return nil
		},
	}
	r, err := fir.RunCheckpointed(p, sysUnderTest, smallCfg(), env)
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

// resumeEach resumes a run on p from every blob and checks that each
// reproduces ref and saves only the steps its marker does not cover.
func resumeEach(t *testing.T, p workloads.Platform, ref workloads.Result, blobs [][]byte) {
	t.Helper()
	for i, blob := range blobs {
		env := saving(blob)
		r, err := fir.RunCheckpointed(p, sysUnderTest, smallCfg(), env)
		if err != nil {
			t.Fatalf("resume from marker %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Errorf("resume from marker %d diverged:\n got %+v\nwant %+v", i, r, ref)
		}
		if !env.Stats.Resumed || env.Stats.ResumedFrom != i+1 {
			t.Errorf("marker %d: stats %+v, want resume from step %d", i, env.Stats, i+1)
		}
		if want := 8 - (i + 1); env.Stats.Captures != want {
			t.Errorf("marker %d: saved %d steps, want %d", i, env.Stats.Captures, want)
		}
	}
}

func TestResumeByteIdentical(t *testing.T) {
	ref := reference(t, plat())
	resumeEach(t, plat(), ref, captureAll(t, plat(), ref))
}

func TestCorruptRestoreFallsBackToFreshRun(t *testing.T) {
	ref := reference(t, plat())
	blobs := captureAll(t, plat(), ref)
	mut := bytes.Clone(blobs[3])
	mut[len(mut)/2] ^= 0x40

	var reason string
	env := saving(mut)
	env.OnReject = func(r string) { reason = r }
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
	if env.Stats.Captures != 8 {
		t.Errorf("rejected run saved %d steps, want all 8", env.Stats.Captures)
	}
	if !reflect.DeepEqual(r, ref) {
		t.Errorf("fallback run diverged:\n got %+v\nwant %+v", r, ref)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	ref := reference(t, plat())
	blobs := captureAll(t, plat(), ref)
	// Same marker, different workload config: must be rejected, and the
	// run must produce the other config's correct result.
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
		t.Fatal("foreign marker accepted")
	}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("fallback diverged:\n got %+v\nwant %+v", r, want)
	}
}

// A traced run checkpoints like any other: its resume re-records the same
// events, so the RMT analysis comes out the same.
func TestTracedRunResumes(t *testing.T) {
	p := plat()
	p.TraceRMT = true
	ref := reference(t, p)
	blobs := captureAll(t, p, ref)
	env := saving(blobs[3])
	r, err := fir.RunCheckpointed(p, sysUnderTest, smallCfg(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Stats.Resumed || env.Stats.Captures != 4 {
		t.Fatalf("stats %+v, want a resume from step 4 saving 4 steps", env.Stats)
	}
	if r.Analysis == nil || !reflect.DeepEqual(r.Analysis, ref.Analysis) {
		t.Errorf("resumed analysis %+v, want %+v", r.Analysis, ref.Analysis)
	}
	if got, want := r.Trace.Events(), ref.Trace.Events(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run recorded %d events, want the reference's %d", len(got), len(want))
	}
}

// A fault-injected run checkpoints too: its resume redraws the same seeded
// faults, so it reproduces the faulted reference from every marker.
func TestFaultInjectedRunResumes(t *testing.T) {
	faults, err := faultinject.ParseSpec("seed=7,dma=0.05,unmap=0.01,fbcap=4")
	if err != nil {
		t.Fatal(err)
	}
	p := plat()
	p.Faults = faults
	ref := reference(t, p)
	if ref.MigrateRetries == 0 {
		t.Fatal("the schedule injected no faults")
	}
	resumeEach(t, p, ref, captureAll(t, p, ref))
}

func TestStepBeyondEndRejected(t *testing.T) {
	ref := reference(t, plat())
	blobs := captureAll(t, plat(), ref)
	last, err := checkpoint.DecodeMarker(blobs[7])
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{0, 1 << 40} {
		blob, err := checkpoint.EncodeMarker(checkpoint.Marker{Digest: last.Digest, Step: step})
		if err != nil {
			t.Fatal(err)
		}
		env := &checkpoint.Env{Restore: blob}
		r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
		if err != nil {
			t.Fatal(err)
		}
		if !env.Stats.Rejected {
			t.Errorf("step %d accepted", step)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Errorf("step %d: fallback diverged:\n got %+v\nwant %+v", step, r, ref)
		}
	}
}

// TestResumeCommittedSnapshot resumes testdata/fir-step4.ckpt, a whole-state
// snapshot an earlier build wrote for smallCfg() on plat() after step 4. It
// pins the envelope, the marker's JSON names and FIR's digest inputs, so
// checkpoints already on disk (a uvmsimd -data-dir) still resume after an
// upgrade.
func TestResumeCommittedSnapshot(t *testing.T) {
	blob, err := os.ReadFile("testdata/fir-step4.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	var reason string
	env := saving(blob)
	env.OnReject = func(r string) { reason = r }
	r, err := fir.RunCheckpointed(plat(), sysUnderTest, smallCfg(), env)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Stats.Resumed || env.Stats.ResumedFrom != 4 || env.Stats.Captures != 4 {
		t.Fatalf("stats %+v (reject reason %q), want a resume from step 4", env.Stats, reason)
	}
	if ref := reference(t, plat()); !reflect.DeepEqual(r, ref) {
		t.Errorf("resumed run diverged:\n got %+v\nwant %+v", r, ref)
	}
}
