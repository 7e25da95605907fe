package checkpoint_test

import (
	"bytes"
	"encoding/binary"
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

// FuzzCheckpointDecode feeds arbitrary bytes through the whole resume path
// as a checkpoint blob. The oracle is the subsystem's safety contract: a
// blob is either rejected or resumed, never both and never neither, and
// never a panic; and either way the run reproduces the reference result
// exactly, since every run re-simulates from step 0.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := fir.Config{
		InputBytes:  128 * units.MiB,
		WindowBytes: 64 * units.MiB,
		FilterRate:  28e9,
	}
	p := workloads.Platform{
		GPU:            gpudev.Generic(384 * units.MiB),
		Gen:            pcie.Gen4,
		OversubPercent: 200,
	}
	const sys = workloads.UvmDiscard
	ref, err := fir.Run(p, sys, cfg)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: a genuine mid-run marker plus targeted corruptions of it.
	var valid []byte
	env := &checkpoint.Env{Every: 1, Save: func(b []byte) error {
		if valid == nil {
			valid = bytes.Clone(b)
		}
		return nil
	}}
	if _, err := fir.RunCheckpointed(p, sys, cfg, env); err != nil {
		f.Fatal(err)
	}
	if valid == nil {
		f.Fatal("no marker saved for seeding")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3]) // torn tail
	f.Add(valid[:51])           // torn inside the header
	flip := bytes.Clone(valid)
	flip[len(flip)-7] ^= 0x10
	f.Add(flip) // payload bit flip
	skew := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(skew[8:], 99)
	f.Add(skew) // version skew
	huge := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(huge[12:], 1<<40)
	f.Add(huge)                // oversized length field
	f.Add([]byte("UVMCKPT\n")) // bare magic
	f.Add([]byte{})
	old, err := os.ReadFile("testdata/fir-step4.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old) // an earlier build's whole-state snapshot, of another config
	m, err := checkpoint.DecodeMarker(valid)
	if err != nil {
		f.Fatal(err)
	}
	for _, bad := range []checkpoint.Marker{
		{Digest: "another run", Step: m.Step},
		{Digest: m.Digest, Step: 0},
		{Digest: m.Digest, Step: 3}, // the run has 2 steps
	} {
		blob, err := checkpoint.EncodeMarker(bad)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		env := &checkpoint.Env{Restore: blob}
		r, err := fir.RunCheckpointed(p, sys, cfg, env)
		if err != nil {
			t.Fatalf("run failed outright on fuzzed blob: %v", err)
		}
		if env.Stats.Rejected == env.Stats.Resumed {
			t.Fatalf("blob must be either rejected or resumed, got stats %+v", env.Stats)
		}
		if !reflect.DeepEqual(r, ref) {
			t.Fatalf("fuzzed blob changed the answer (resumed=%v):\n got %+v\nwant %+v",
				env.Stats.Resumed, r, ref)
		}
	})
}
