package workloads

import (
	"testing"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
)

const toGPU = cuda.ToGPU

type (
	cudaBuffer = cuda.Buffer
	cudaKernel = cuda.Kernel
	cudaAccess = cuda.Access
)

func TestParseSystem(t *testing.T) {
	for name, want := range map[string]System{
		"UVM-opt": UVMOpt, "uvm-opt": UVMOpt, "uvmopt": UVMOpt, "": UVMOpt,
		"UvmDiscard": UvmDiscard, "discard": UvmDiscard,
		"uvmdiscardlazy": UvmDiscardLazy, "Lazy": UvmDiscardLazy,
		"No-UVM": NoUVM, "nouvm": NoUVM,
		"PyTorch-LMS": PyTorchLMS, "lms": PyTorchLMS,
		" UvmDiscard ": UvmDiscard,
	} {
		got, err := ParseSystem(name)
		if err != nil || got != want {
			t.Errorf("ParseSystem(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// Every system parses back from the name its tables print.
	for _, sys := range []System{UVMOpt, UvmDiscard, UvmDiscardLazy, NoUVM, PyTorchLMS} {
		if got, err := ParseSystem(sys.String()); err != nil || got != sys {
			t.Errorf("ParseSystem(%q) = %v, %v", sys.String(), got, err)
		}
	}
	for _, bad := range []string{"bogus", "Bogus", "UVM", "discard-lazy"} {
		if _, err := ParseSystem(bad); err == nil {
			t.Errorf("ParseSystem(%q) accepted", bad)
		}
	}
}

func TestSystemStrings(t *testing.T) {
	names := map[System]string{
		UVMOpt:         "UVM-opt",
		UvmDiscard:     "UvmDiscard",
		UvmDiscardLazy: "UvmDiscardLazy",
		NoUVM:          "No-UVM",
		PyTorchLMS:     "PyTorch-LMS",
	}
	for sys, want := range names {
		if sys.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(sys), sys.String(), want)
		}
	}
	if System(99).String() == "" {
		t.Error("unknown system should stringify")
	}
	if !UvmDiscard.UsesDiscard() || !UvmDiscardLazy.UsesDiscard() || UVMOpt.UsesDiscard() {
		t.Error("UsesDiscard wrong")
	}
}

func TestDiscardHelpers(t *testing.T) {
	p := Platform{GPU: gpudev.Generic(16 * units.MiB), Gen: pcie.Gen4}
	ctx, err := p.NewContext(8 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := ctx.MallocManaged("x", 4*units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	s := ctx.Stream("s")
	if err := s.Launch(mustKernel(buf)); err != nil {
		t.Fatal(err)
	}
	// UVM-opt: no-op.
	if err := Discard(UVMOpt, s, buf); err != nil {
		t.Fatal(err)
	}
	if buf.Alloc().Block(0).Discarded {
		t.Error("UVM-opt issued a discard")
	}
	// Eager flavor.
	if err := Discard(UvmDiscard, s, buf); err != nil {
		t.Fatal(err)
	}
	if !buf.Alloc().Block(0).Discarded || buf.Alloc().Block(0).LazyDiscard {
		t.Error("eager discard state wrong")
	}
	// Range helper with the lazy flavor on a fresh buffer.
	buf2, _ := ctx.MallocManaged("y", 4*units.MiB)
	if err := s.Launch(mustKernel(buf2)); err != nil {
		t.Fatal(err)
	}
	if err := DiscardRange(UvmDiscardLazy, s, buf2, 0, 2*units.MiB); err != nil {
		t.Fatal(err)
	}
	if !buf2.Alloc().Block(0).LazyDiscard {
		t.Error("lazy range discard state wrong")
	}
	if err := DiscardRange(NoUVM, s, buf2, 0, 2*units.MiB); err != nil {
		t.Fatal(err) // no-op
	}
}

func mustKernel(buf *cuda.Buffer) cuda.Kernel {
	return cudaKernel{Name: "k", Accesses: []cudaAccess{{Buf: buf, Mode: core.Write}}}
}

func TestReservationMath(t *testing.T) {
	p := Platform{GPU: gpudev.Generic(100 * units.BlockSize)}
	// Fits: no reservation, even for footprints beyond capacity (DL mode).
	for _, fp := range []units.Size{10 * units.BlockSize, 500 * units.BlockSize} {
		r, err := p.Reservation(fp)
		if err != nil || r != 0 {
			t.Errorf("fits reservation(%d) = %d, %v", fp, r, err)
		}
	}
	// 200%: available = footprint/2.
	p.OversubPercent = 200
	r, err := p.Reservation(50 * units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if r != 75*units.BlockSize { // 100 - 25
		t.Errorf("reservation = %d blocks", r/units.BlockSize)
	}
	// Impossible: footprint/ratio exceeds the whole GPU.
	if _, err := p.Reservation(300 * units.BlockSize); err == nil {
		t.Error("impossible oversubscription accepted")
	}
	// Tiny footprint: available clamps to one block.
	r, err = p.Reservation(units.BlockSize)
	if err != nil || r != 99*units.BlockSize {
		t.Errorf("tiny reservation = %d, %v", r/units.BlockSize, err)
	}
}

func TestDefaultPlatform(t *testing.T) {
	p := DefaultPlatform()
	if p.GPU.Name != "RTX 3080 Ti" || p.Gen != pcie.Gen4 {
		t.Errorf("default platform = %+v", p)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{TrafficBytes: 5_660_000_000}
	if r.TrafficGB() != 5.66 {
		t.Errorf("TrafficGB = %v", r.TrafficGB())
	}
}

func TestCollectSince(t *testing.T) {
	p := Platform{GPU: gpudev.Generic(16 * units.MiB), TraceRMT: true}
	ctx, err := p.NewContext(8 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := ctx.MallocManaged("x", 4*units.MiB)
	if err := buf.HostWrite(0, buf.Size()); err != nil {
		t.Fatal(err)
	}
	s := ctx.Stream("s")
	if err := s.PrefetchAll(buf, toGPU); err != nil {
		t.Fatal(err)
	}
	ctx.DeviceSynchronize()
	full := Collect(UVMOpt, ctx)
	if full.Trace == nil || full.Analysis == nil || full.Advice == nil {
		t.Error("tracing artifacts missing")
	}
	later := CollectSince(UVMOpt, ctx, full.Runtime/2)
	if later.Runtime >= full.Runtime {
		t.Error("CollectSince did not subtract the start time")
	}
	// A start beyond the runtime leaves it unchanged (no negative times).
	weird := CollectSince(UVMOpt, ctx, full.Runtime*10)
	if weird.Runtime != full.Runtime {
		t.Errorf("runtime = %v", weird.Runtime)
	}
}
