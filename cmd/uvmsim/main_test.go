package main

import (
	"strings"
	"testing"

	"uvmdiscard/internal/pcie"
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
