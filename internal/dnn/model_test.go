package dnn

import (
	"testing"

	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// The calibration anchors from §7.5: model name -> (batch, GB) pairs.
var paperAllocations = map[string][2][2]float64{
	"VGG-16":     {{75, 12.0}, {150, 21.1}},
	"Darknet-19": {{171, 11.2}, {360, 23.4}},
	"ResNet-53":  {{56, 10.8}, {150, 28.5}},
	"RNN":        {{150, 10.2}, {300, 20.0}},
}

func TestModelByName(t *testing.T) {
	for name, want := range map[string]string{
		"vgg16": "VGG-16", "VGG-16": "VGG-16", "Vgg-16": "VGG-16",
		"darknet19": "Darknet-19", "Darknet-19": "Darknet-19",
		"resnet53": "ResNet-53", "RESNET-53": "ResNet-53",
		"RNN": "RNN", "rnn": "RNN",
	} {
		m, err := ModelByName(name)
		if err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
			continue
		}
		if m.Name != want {
			t.Errorf("ModelByName(%q) = %s, want %s", name, m.Name, want)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("ModelByName(%q) invalid: %v", name, err)
		}
	}
	for _, bad := range []string{"gpt", "", "vgg19"} {
		if _, err := ModelByName(bad); err == nil {
			t.Errorf("ModelByName(%q) accepted", bad)
		}
	}
}

func TestZooValidates(t *testing.T) {
	for _, m := range Zoo() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// Footprints must match the paper's reported CUDA allocations within 3%.
func TestFootprintMatchesPaper(t *testing.T) {
	for _, m := range Zoo() {
		anchors, ok := paperAllocations[m.Name]
		if !ok {
			t.Fatalf("no paper anchor for %s", m.Name)
		}
		for _, a := range anchors {
			batch, wantGB := int(a[0]), a[1]
			got := float64(m.FootprintBytes(batch)) / 1e9
			if got < wantGB*0.97 || got > wantGB*1.03 {
				t.Errorf("%s at batch %d: footprint %.2f GB, paper reports %.1f GB",
					m.Name, batch, got, wantGB)
			}
		}
	}
}

func TestFootprintLinearInBatch(t *testing.T) {
	m := VGG16()
	d1 := m.FootprintBytes(20) - m.FootprintBytes(10)
	d2 := m.FootprintBytes(110) - m.FootprintBytes(100)
	if d1 != d2 {
		t.Errorf("footprint not linear: slope %d vs %d", d1, d2)
	}
	if d1 != 10*m.PerSampleBytes() {
		t.Errorf("slope %d != 10*PerSampleBytes %d", d1, 10*m.PerSampleBytes())
	}
}

func TestArchitecturalSizes(t *testing.T) {
	vgg := VGG16()
	// VGG-16's parameters are ~553 MB fp32 (138M params).
	w := float64(vgg.TotalWeights()) / 1e6
	if w < 520 || w < 0 || w > 600 {
		t.Errorf("VGG-16 weights = %.0f MB, want ~553", w)
	}
	// Forward cost ~31 GFLOPs per sample (15.5 GMACs).
	gf := vgg.ForwardFlops() / 1e9
	if gf < 28 || gf > 34 {
		t.Errorf("VGG-16 forward = %.1f GFLOPs, want ~31", gf)
	}
	// Largest activation is conv1's 224*224*64 fp32 map.
	if vgg.MaxOutPerSample() != 224*224*64*4 {
		t.Errorf("max activation = %d", vgg.MaxOutPerSample())
	}
	if len(ResNet53().Layers) < 50 {
		t.Errorf("ResNet-53 has %d layers", len(ResNet53().Layers))
	}
}

func TestCalibrateErrors(t *testing.T) {
	m := VGG16()
	if err := m.Calibrate(100, units.GiB, 50, 2*units.GiB); err == nil {
		t.Error("non-increasing batches accepted")
	}
	// Measurements implying less than the architecture needs must fail.
	if err := m.Calibrate(100, units.GiB, 200, units.GiB+units.MiB); err == nil {
		t.Error("impossible slope accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	m := &ModelSpec{Name: "empty"}
	if m.Validate() == nil {
		t.Error("empty model accepted")
	}
	m = VGG16()
	m.Efficiency = 0
	if m.Validate() == nil {
		t.Error("zero efficiency accepted")
	}
	m = VGG16()
	m.SampleBytes = 0
	if m.Validate() == nil {
		t.Error("zero sample accepted")
	}
	m = VGG16()
	m.Layers[0].FlopsPerSample = 0
	if m.Validate() == nil {
		t.Error("zero-flop layer accepted")
	}
}

// The Figure 5 note: above a threshold batch size the library switches
// algorithms and the workspace footprint jumps discontinuously.
func TestAlgoSwitchDiscontinuity(t *testing.T) {
	m := tinyModel()
	m.AlgoSwitch = AlgoSwitch{AtBatch: 40, StashFactor: 1.5}
	below := m.FootprintBytes(39)
	at := m.FootprintBytes(40)
	slope := m.FootprintBytes(39) - m.FootprintBytes(38)
	if at-below <= slope {
		t.Errorf("no discontinuity at the switch: %d vs linear slope %d", at-below, slope)
	}
	// Stash sizing follows.
	l := m.Layers[0]
	if m.StashBytes(l, 39) != l.StashPerSample {
		t.Error("below threshold should use the base stash")
	}
	if m.StashBytes(l, 40) <= l.StashPerSample {
		t.Error("at threshold the stash should grow")
	}
}

// The traffic jump shows up end to end: training just past the switch
// moves disproportionately more data.
func TestAlgoSwitchTrafficJump(t *testing.T) {
	base := tinyModel()
	switched := tinyModel()
	switched.AlgoSwitch = AlgoSwitch{AtBatch: 60, StashFactor: 2.0}
	p := tinyPlatform()
	cfg := func(m *ModelSpec) TrainConfig { return TrainConfig{Model: m, Batch: 60, Steps: 3} }
	plain, err := Train(p, workloads.UVMOpt, cfg(base))
	if err != nil {
		t.Fatal(err)
	}
	jumped, err := Train(p, workloads.UVMOpt, cfg(switched))
	if err != nil {
		t.Fatal(err)
	}
	if jumped.TrafficBytes <= plain.TrafficBytes {
		t.Errorf("algorithm switch should increase traffic: %d <= %d",
			jumped.TrafficBytes, plain.TrafficBytes)
	}
}
