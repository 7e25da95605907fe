package dnn_test

import (
	"testing"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/lms"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/workloads"
)

// TestMeasurementExact pins the deep-learning measurement (§7.5) of every
// DL loop to the last bit: Runtime from time zero with setup included,
// Throughput over the steps after the warm-up sync, and the PCIe and peer
// traffic. The experiment tables round these to one decimal or none, so a
// moved warm-up sync or a reordered driver call could hide there; here it
// cannot.
func TestMeasurementExact(t *testing.T) {
	tiny := func(sys workloads.System, batch int, recompute bool) func() (dnn.TrainResult, error) {
		return func() (dnn.TrainResult, error) {
			return dnn.Train(dnn.TinyPlatform(), sys, dnn.TrainConfig{
				Model: dnn.TinyModel(), Batch: batch, Steps: 3, Recompute: recompute,
			})
		}
	}
	infer := func(gpus int, hints bool) func() (dnn.TrainResult, error) {
		return func() (dnn.TrainResult, error) {
			p := dnn.ServingPlatform()
			p.GPUs = gpus
			return dnn.Infer(p, dnn.InferConfig{
				Model: dnn.ServedModel(), Batch: 8, Requests: 3, Discard: hints, AdviseWeights: hints,
			})
		}
	}
	dataParallel := func(gpus int) func() (dnn.TrainResult, error) {
		return func() (dnn.TrainResult, error) {
			return dnn.TrainDataParallel(dnn.DPPlatform(gpus), workloads.UvmDiscard,
				dnn.DataParallelConfig{Model: dnn.TinyModel(), GlobalBatch: 32, Steps: 3})
		}
	}
	for _, tc := range []struct {
		name       string
		run        func() (dnn.TrainResult, error)
		runtime    sim.Time
		throughput float64
		traffic    uint64
		peer       uint64
	}{
		{"train UVM-opt", tiny(workloads.UVMOpt, 40, false), 290800571, 387.1093927110108, 4059135595, 0},
		{"train UvmDiscard", tiny(workloads.UvmDiscard, 40, false), 181144054, 679.6947901912599, 1448479520, 0},
		{"train UvmDiscardLazy", tiny(workloads.UvmDiscardLazy, 40, false), 177758854, 693.6070163274311, 1448479520, 0},
		{"train No-UVM", tiny(workloads.NoUVM, 8, false), 21689794, 1169.2248331662315, 6389760, 0},
		{"train recompute", tiny(workloads.UvmDiscard, 40, true), 148485499, 832.4145124602827, 53248000, 0},
		{"infer", infer(1, false), 204325899, 206.45132520331455, 2209349632, 0},
		{"infer discard read-mostly", infer(1, true), 158395757, 413.46603043203015, 1236271104, 0},
		{"infer two GPUs", infer(2, false), 121706473, 7637.100269398711, 447217664, 67108864},
		{"data-parallel one GPU", dataParallel(1), 111749775, 892.5747515315954, 467009536, 0},
		{"data-parallel two GPUs", dataParallel(2), 48748832, 2173.374203182438, 42598400, 138412032},
		{"lms", func() (dnn.TrainResult, error) {
			return lms.Train(dnn.TinyPlatform(), lms.Config{Model: dnn.TinyModel(), Batch: 24, Steps: 3})
		}, 155202416, 467.5890822469323, 2302377696, 0},
	} {
		r, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Runtime != tc.runtime || r.Throughput != tc.throughput || r.TrafficBytes != tc.traffic || r.PeerBytes != tc.peer {
			t.Errorf("%s: runtime %d, throughput %v, traffic %d, peer %d; want %d, %v, %d, %d", tc.name,
				int64(r.Runtime), r.Throughput, r.TrafficBytes, r.PeerBytes,
				int64(tc.runtime), tc.throughput, tc.traffic, tc.peer)
		}
	}
}
