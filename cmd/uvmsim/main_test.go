package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/catalog"
)

func TestGB(t *testing.T) {
	if gb(2_500_000_000) != 2.5 {
		t.Errorf("gb = %v", gb(2_500_000_000))
	}
}

func TestPlatform(t *testing.T) {
	for _, tc := range []struct {
		name    string
		gen     int
		ovsp    int
		gpu     string
		faults  string
		wantGen pcie.Generation
		wantGPU string
		wantErr string // substring; "" means success
	}{
		{name: "defaults", gen: 4, gpu: "3080ti", wantGen: pcie.Gen4, wantGPU: "RTX 3080 Ti"},
		{name: "pcie3", gen: 3, ovsp: 200, gpu: "3080ti", wantGen: pcie.Gen3, wantGPU: "RTX 3080 Ti"},
		{name: "gpu any case", gen: 4, gpu: "GTX1070", wantGen: pcie.Gen4, wantGPU: "GTX 1070"},
		{name: "faults", gen: 4, gpu: "3080ti", faults: "seed=7,dma=0.05", wantGen: pcie.Gen4, wantGPU: "RTX 3080 Ti"},
		{name: "pcie5", gen: 5, gpu: "3080ti", wantErr: "unsupported PCIe generation 5 (want 3 or 4)"},
		{name: "pcie9 is not a PCIe generation", gen: 9, gpu: "3080ti", wantErr: "unsupported PCIe generation 9"},
		{name: "pcie0", gen: 0, gpu: "3080ti", wantErr: "unsupported PCIe generation 0"},
		{name: "unknown gpu", gen: 4, gpu: "foo", wantErr: `unknown GPU "foo"`},
		{name: "bad faults", gen: 4, gpu: "3080ti", faults: "dma=2", wantErr: "dma"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := platform(tc.gen, tc.ovsp, tc.gpu, tc.faults)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.Gen != tc.wantGen || p.GPU.Name != tc.wantGPU || p.OversubPercent != tc.ovsp {
				t.Fatalf("platform = gen %v, GPU %q, ovsp %d; want %v, %q, %d",
					p.Gen, p.GPU.Name, p.OversubPercent, tc.wantGen, tc.wantGPU, tc.ovsp)
			}
			if (p.Faults != nil) != (tc.faults != "") {
				t.Fatalf("faults = %v for spec %q", p.Faults, tc.faults)
			}
		})
	}
}

// buildUvmsim compiles the command into a temporary directory.
func buildUvmsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "uvmsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runUvmsim(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("uvmsim %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// -rmt, -advise and -dump report the traced run itself: the RMT split,
// the advice and the events of an in-process traced run of the same
// workload, on stdout, in the JSON object and in the dump file.
func TestTraceFlags(t *testing.T) {
	bin := buildUvmsim(t)
	p, err := platform(4, 200, "3080ti", "")
	if err != nil {
		t.Fatal(err)
	}
	p.TraceRMT = true
	w, err := catalog.Lookup("fir")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := w.New(false)
	r, err := workloads.Run(p, workloads.UVMOpt, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := r.Analysis
	if a.RedundantCount == 0 || a.RedundantCount == a.TransferCount {
		t.Fatalf("reference run splits %d transfers into %d redundant; want both kinds", a.TransferCount, a.RedundantCount)
	}
	var wantDump bytes.Buffer
	if err := trace.WriteJSON(&wantDump, r.Trace); err != nil {
		t.Fatal(err)
	}

	dump := filepath.Join(t.TempDir(), "trace.jsonl")
	out := runUvmsim(t, bin, "-workload", "fir", "-ovsp", "200", "-rmt", "-advise", "-dump", dump)
	for _, want := range []string{rmtLine(a) + "\n", r.Advice.String(), fmt.Sprintf("%d events written to %s", r.Trace.Len(), dump)} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if got, err := os.ReadFile(dump); err != nil || !bytes.Equal(got, wantDump.Bytes()) {
		t.Errorf("-dump file differs from the reference trace (%d bytes, want %d; err %v)", len(got), wantDump.Len(), err)
	}

	var obj struct {
		RMT *struct {
			TotalGB     float64 `json:"totalGB"`
			RequiredGB  float64 `json:"requiredGB"`
			RedundantGB float64 `json:"redundantGB"`
			Transfers   int     `json:"transfers"`
		} `json:"rmt"`
	}
	if err := json.Unmarshal([]byte(runUvmsim(t, bin, "-workload", "fir", "-ovsp", "200", "-rmt", "-json")), &obj); err != nil {
		t.Fatal(err)
	}
	if obj.RMT == nil || obj.RMT.TotalGB != gb(a.Total()) || obj.RMT.RequiredGB != gb(a.RequiredBytes) ||
		obj.RMT.RedundantGB != gb(a.Redundant()) || obj.RMT.Transfers != a.TransferCount {
		t.Errorf("-json -rmt split = %+v, want %.9f GB total, %.9f required, %.9f redundant, %d transfers",
			obj.RMT, gb(a.Total()), gb(a.RequiredBytes), gb(a.Redundant()), a.TransferCount)
	}

	// Untraced runs print no split, and the DNN loops trace like the step
	// workloads do.
	if out := runUvmsim(t, bin, "-workload", "fir", "-ovsp", "200"); strings.Contains(out, "rmt:") {
		t.Errorf("untraced run printed a split:\n%s", out)
	}
	if out := runUvmsim(t, bin, "-workload", "fir", "-json"); strings.Contains(out, `"rmt"`) {
		t.Errorf("untraced -json run carries a split:\n%s", out)
	}
	for _, args := range [][]string{
		{"-workload", "dl", "-model", "resnet53", "-batch", "30", "-rmt"},
		{"-workload", "infer", "-rmt"},
	} {
		if out := runUvmsim(t, bin, args...); !strings.Contains(out, "rmt:") || strings.Contains(out, " 0 transfers") {
			t.Errorf("uvmsim %s: want a split over traced transfers:\n%s", strings.Join(args, " "), out)
		}
	}
	if err := exec.Command(bin, "-advise", "-json").Run(); err == nil {
		t.Error("-advise -json succeeded; the advice is a text report")
	}
}
