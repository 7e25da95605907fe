// prom.go is the Prometheus scrape surface of uvmsimd: GET /metrics renders
// three layers of the system as one text exposition (internal/promexp) —
//
//   - service counters and gauges: admissions, sheds, finished jobs by
//     outcome, live queue depth, tracked jobs by state, and the job
//     wall-latency histogram;
//   - cumulative simulation counters: every finished run's
//     metrics.Collector is folded into one monotonic collector, and live
//     runs' snapshots are added at scrape time, so uvmsim_* counters never
//     go backwards;
//   - per-device residency gauges: each active run (and the most recently
//     finished one) exports its GPUs' queue occupancy with
//     {job, workload, device="gpuN"} labels, published by the driver at
//     checkpoints (core.Driver.PublishResidency).
//
// DESIGN.md §12 is the metric catalog.
package service

import (
	"net/http"
	"strconv"
	"sync"

	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/promexp"
	"uvmdiscard/internal/sim"
)

// simState aggregates per-run simulation collectors for the exporter. Runs
// register their collector at start and fold it into the cumulative total
// when they finish; a scrape between those two points sees the live run's
// snapshot added on top of the total, so counters are monotonic across any
// interleaving of runs and scrapes.
type simState struct {
	mu sync.Mutex
	// total accumulates the counters of every finished run (Collector.Merge).
	total *metrics.Collector
	// active maps job ID → the run currently adding to its collector.
	active map[string]*simRun
	// last is the most recently finished run, kept so residency gauges
	// outlive the run that produced them until the next one starts.
	last *simRun
}

// simRun is one run's identity for labeling. Immutable after creation; the
// collector synchronizes itself.
type simRun struct {
	job      string
	workload string
	col      *metrics.Collector
}

func (ss *simState) init() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.total = metrics.New()
	ss.active = make(map[string]*simRun)
}

// begin registers a run's live collector under its job ID.
func (ss *simState) begin(jobID, workload string, col *metrics.Collector) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.active[jobID] = &simRun{job: jobID, workload: workload, col: col}
}

// end folds a finished run into the cumulative total and retires it from
// the active set. Safe to call for an unregistered ID (no-op).
func (ss *simState) end(jobID string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	r, ok := ss.active[jobID]
	if !ok {
		return
	}
	delete(ss.active, jobID)
	ss.total.Merge(r.col)
	ss.last = r
}

// simView is a scrape-time snapshot of one run, detached from the live
// collector.
type simView struct {
	job      string
	workload string
	snap     *metrics.Collector
	live     bool
}

// view returns (cumulative counters incl. live runs, per-run snapshots for
// gauges). The returned collector is private to the caller.
func (ss *simState) view() (*metrics.Collector, []simView) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	tot := ss.total.Snapshot()
	var runs []simView
	for _, r := range ss.active {
		snap := r.col.Snapshot()
		tot.Merge(snap)
		runs = append(runs, simView{job: r.job, workload: r.workload, snap: snap, live: true})
	}
	if ss.last != nil {
		runs = append(runs, simView{job: ss.last.job, workload: ss.last.workload, snap: ss.last.col.Snapshot()})
	}
	return tot, runs
}

// beginRun/endRun wrap simState for one job's simulation run: beginRun
// returns the run's live collector, which the /metrics exporter snapshots
// while the run executes.
func (s *Server) beginRun(j *job, workload string) *metrics.Collector {
	col := metrics.New()
	s.sims.begin(j.id, workload, col)
	return col
}

func (s *Server) endRun(j *job) {
	s.sims.end(j.id)
}

func (s *Server) handlePromMetrics(w http.ResponseWriter, _ *http.Request) {
	fams := s.promFamilies()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := promexp.Write(w, fams); err != nil {
		// A render error means a programming bug (bad metric name); surface
		// it rather than serving a half exposition.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// promFamilies assembles the full exposition. Each layer reads its own
// synchronized source; the scrape is a consistent snapshot per collector,
// not across them (standard Prometheus semantics).
func (s *Server) promFamilies() []promexp.Family {
	sc := s.sc.Snapshot()

	s.mu.Lock()
	byState := make(map[jobState]float64)
	var running []*job
	for _, j := range s.jobs {
		st := j.status().State
		byState[st]++
		if st == stateRunning {
			running = append(running, j)
		}
	}
	s.mu.Unlock()

	fams := []promexp.Family{
		promexp.Counter("uvmsimd_jobs_admitted_total",
			"Jobs accepted into the admission queue.", float64(sc.Admitted)),
		promexp.Counter("uvmsimd_jobs_shed_total",
			"Submissions shed by backpressure or shutdown.", float64(sc.Shed)),
		{
			Name: "uvmsimd_jobs_finished_total",
			Help: "Jobs that reached a terminal state, by outcome.",
			Kind: promexp.KindCounter,
			Samples: []promexp.Sample{
				{Labels: []promexp.Label{promexp.L("outcome", "done")}, Value: float64(sc.Completed)},
				{Labels: []promexp.Label{promexp.L("outcome", "failed")}, Value: float64(sc.Failed)},
				{Labels: []promexp.Label{promexp.L("outcome", "canceled")}, Value: float64(sc.Canceled)},
				{Labels: []promexp.Label{promexp.L("outcome", "deadline_expired")}, Value: float64(sc.DeadlineExpired)},
				{Labels: []promexp.Label{promexp.L("outcome", "budget_expired")}, Value: float64(sc.BudgetExpired)},
			},
		},
		promexp.Counter("uvmsimd_panics_total",
			"Panics recovered by request or job isolation.", float64(sc.Panics)),
		promexp.Counter("uvmsimd_batch_results_resumed_total",
			"Batch experiment results served from a crash-safe journal instead of re-running, plus workload runs resumed from a checkpoint snapshot.",
			float64(sc.Resumed)),
		promexp.Counter("uvmsimd_checkpoints_saved_total",
			"Checkpoint snapshots durably written for checkpoint-enabled runs.",
			float64(sc.CheckpointsSaved)),
		promexp.Counter("uvmsimd_checkpoints_corrupt_total",
			"Corrupt or torn checkpoint snapshots rejected at restore (from-zero fallbacks).",
			float64(sc.CheckpointsCorrupt)),
		promexp.Gauge("uvmsimd_queue_depth",
			"Jobs waiting in the admission queue right now.", float64(len(s.queue))),
		promexp.Gauge("uvmsimd_queue_capacity",
			"Admission queue capacity (Config.QueueDepth).", float64(cap(s.queue))),
		promexp.Gauge("uvmsimd_jobs_retained_limit",
			"Bound on finished jobs kept for inspection (Config.RetainJobs).",
			float64(s.cfg.RetainJobs)),
	}

	tracked := promexp.Family{
		Name: "uvmsimd_jobs_tracked",
		Help: "Jobs currently held in the job table, by state.",
		Kind: promexp.KindGauge,
	}
	for _, st := range []jobState{stateQueued, stateRunning, stateDone, stateFailed,
		stateCanceled, stateDeadline, stateBudget, stateShed} {
		tracked.Samples = append(tracked.Samples, promexp.Sample{
			Labels: []promexp.Label{promexp.L("state", string(st))},
			Value:  byState[st],
		})
	}
	fams = append(fams, tracked)
	fams = append(fams, s.latency.Family("uvmsimd_job_duration_seconds",
		"Wall-clock duration of finished jobs (all outcomes)."))

	simTime := promexp.Family{
		Name: "uvmsim_run_sim_time_seconds",
		Help: "Simulated clock of each running job, from its last published progress checkpoint.",
		Kind: promexp.KindGauge,
	}
	for _, j := range running {
		if p, ok := j.currentControl().Progress(); ok {
			simTime.Samples = append(simTime.Samples, promexp.Sample{
				Labels: []promexp.Label{promexp.L("job", j.id)},
				Value:  float64(p.SimTime) / float64(sim.Second),
			})
		}
	}
	promexp.SortSamples(&simTime)
	fams = append(fams, simTime)

	tot, runs := s.sims.view()
	fams = append(fams, simCounterFamilies(tot)...)
	fams = append(fams, runGaugeFamilies(runs)...)
	return fams
}

// simCounterFamilies renders the cumulative simulation counters. Every
// label combination is always emitted (zeros included) so each scrape
// exposes a stable set of series — the Prometheus-friendly shape for
// rate() over counters that fire rarely.
func simCounterFamilies(m *metrics.Collector) []promexp.Family {
	dirs := []metrics.Direction{metrics.H2D, metrics.D2H}
	dirName := map[metrics.Direction]string{metrics.H2D: "h2d", metrics.D2H: "d2h"}
	causes := []metrics.Cause{metrics.CauseFault, metrics.CausePrefetch,
		metrics.CauseEviction, metrics.CauseMemcpy, metrics.CauseRemote}

	xferBytes := promexp.Family{
		Name: "uvmsim_transfer_bytes_total",
		Help: "Host-link (PCIe) bytes transferred, by direction and cause.",
		Kind: promexp.KindCounter,
	}
	xferOps := promexp.Family{
		Name: "uvmsim_transfer_ops_total",
		Help: "Host-link DMA operations, by direction and cause.",
		Kind: promexp.KindCounter,
	}
	for _, d := range dirs {
		for _, c := range causes {
			lbls := []promexp.Label{
				promexp.L("direction", dirName[d]), promexp.L("cause", c.String()),
			}
			xferBytes.Samples = append(xferBytes.Samples,
				promexp.Sample{Labels: lbls, Value: float64(m.Bytes(d, c))})
			xferOps.Samples = append(xferOps.Samples,
				promexp.Sample{Labels: lbls, Value: float64(m.Ops(d, c))})
		}
	}

	savedH2D, savedD2H := m.Saved()
	saved := promexp.Family{
		Name: "uvmsim_discard_saved_bytes_total",
		Help: "Transfer bytes avoided by the discard directive (the paper's headline saving), by direction.",
		Kind: promexp.KindCounter,
		Samples: []promexp.Sample{
			{Labels: []promexp.Label{promexp.L("direction", "h2d")}, Value: float64(savedH2D)},
			{Labels: []promexp.Label{promexp.L("direction", "d2h")}, Value: float64(savedD2H)},
		},
	}

	evicts := promexp.Family{
		Name: "uvmsim_evictions_total",
		Help: "Chunk allocations by the eviction source that satisfied them.",
		Kind: promexp.KindCounter,
	}
	for _, src := range []metrics.EvictSource{metrics.EvictFree, metrics.EvictUnused,
		metrics.EvictDiscarded, metrics.EvictLRU} {
		evicts.Samples = append(evicts.Samples, promexp.Sample{
			Labels: []promexp.Label{promexp.L("source", src.String())},
			Value:  float64(m.Evictions(src)),
		})
	}

	peerBytes, peerOps := m.Peer()
	faultBatches, faultedBlocks := m.FaultBatches()
	zeroBlocks, zeroPages := m.ZeroFills()
	discardCalls, discardBlocks := m.Discards()
	degradedBlocks, degradedBytes := m.Degraded()
	poisonChunks, poisonRecovered, poisonLost := m.Poisoned()

	return []promexp.Family{
		xferBytes, xferOps, saved,
		promexp.Counter("uvmsim_peer_bytes_total",
			"GPU-to-GPU bytes over the peer fabric (never cross host DRAM).", float64(peerBytes)),
		promexp.Counter("uvmsim_peer_ops_total",
			"GPU-to-GPU transfer operations.", float64(peerOps)),
		promexp.Counter("uvmsim_peer_saved_bytes_total",
			"Peer-transfer bytes avoided by discard.", float64(m.PeerSaved())),
		evicts,
		promexp.Counter("uvmsim_fault_batches_total",
			"Fault-service batches handled by the driver.", float64(faultBatches)),
		promexp.Counter("uvmsim_faulted_blocks_total",
			"Blocks migrated or mapped by fault servicing.", float64(faultedBlocks)),
		promexp.Counter("uvmsim_zero_fill_blocks_total",
			"Whole blocks zero-filled on first touch.", float64(zeroBlocks)),
		promexp.Counter("uvmsim_zero_fill_pages_total",
			"Loose 4KiB pages zero-filled on first touch.", float64(zeroPages)),
		promexp.Counter("uvmsim_pte_unmap_blocks_total",
			"Blocks whose PTEs were destroyed.", float64(m.Unmaps())),
		promexp.Counter("uvmsim_pte_map_blocks_total",
			"Blocks whose PTEs were established.", float64(m.Maps())),
		promexp.Counter("uvmsim_discard_calls_total",
			"Discard API calls issued by workloads.", float64(discardCalls)),
		promexp.Counter("uvmsim_discard_blocks_total",
			"Blocks covered by discard calls.", float64(discardBlocks)),
		promexp.Counter("uvmsim_migrate_retries_total",
			"Failed migration attempts retried by fault recovery.", float64(m.MigrateRetries())),
		promexp.Counter("uvmsim_unmap_retries_total",
			"Reissued unmap/TLB shootdowns.", float64(m.UnmapRetries())),
		promexp.Counter("uvmsim_fault_replays_total",
			"Replayed fault rounds after replayable-buffer overflow.", float64(m.FaultReplays())),
		promexp.Counter("uvmsim_degraded_transfers_total",
			"Migrations degraded to coherent host-pinned access.", float64(degradedBlocks)),
		promexp.Counter("uvmsim_degraded_bytes_total",
			"Bytes served through the degradation path.", float64(degradedBytes)),
		promexp.Counter("uvmsim_poisoned_chunks_total",
			"Chunks quarantined by ECC-style poison.", float64(poisonChunks)),
		promexp.Counter("uvmsim_poison_recovered_bytes_total",
			"Poisoned bytes recovered from a valid host copy.", float64(poisonRecovered)),
		promexp.Counter("uvmsim_poison_lost_bytes_total",
			"Poisoned bytes with no valid host copy (data lost).", float64(poisonLost)),
	}
}

// runGaugeFamilies renders per-run, per-device residency gauges with
// {job, workload, device="gpuN"} labels, plus each run's simulated clock.
// Gauges are point-in-time by nature, so they are scoped to runs rather
// than merged: two concurrent runs each own their simulated GPUs.
func runGaugeFamilies(runs []simView) []promexp.Family {
	type field struct {
		name string
		help string
		get  func(metrics.DeviceResidency) uint64
	}
	fields := []field{
		{"uvmsim_device_capacity_bytes", "Physical chunk-pool capacity of the simulated GPU.",
			func(r metrics.DeviceResidency) uint64 { return r.CapacityBytes }},
		{"uvmsim_device_free_bytes", "Capacity on the free queue.",
			func(r metrics.DeviceResidency) uint64 { return r.FreeBytes }},
		{"uvmsim_device_unused_bytes", "Capacity holding dead data reclaimable without a transfer (unused queue).",
			func(r metrics.DeviceResidency) uint64 { return r.UnusedBytes }},
		{"uvmsim_device_used_bytes", "Capacity holding live resident data.",
			func(r metrics.DeviceResidency) uint64 { return r.UsedBytes }},
		{"uvmsim_device_discarded_bytes", "Capacity holding discarded data (reclaimable without a transfer).",
			func(r metrics.DeviceResidency) uint64 { return r.DiscardedBytes }},
		{"uvmsim_device_reserved_bytes", "Capacity reserved by the oversubscription co-resident program.",
			func(r metrics.DeviceResidency) uint64 { return r.ReservedBytes }},
		{"uvmsim_device_poisoned_bytes", "Capacity quarantined by ECC-style poison.",
			func(r metrics.DeviceResidency) uint64 { return r.PoisonedBytes }},
	}
	fams := make([]promexp.Family, 0, len(fields)+1)
	for _, f := range fields {
		fam := promexp.Family{Name: f.name, Help: f.help, Kind: promexp.KindGauge}
		for _, run := range runs {
			for dev, r := range run.snap.DeviceResidency() {
				fam.Samples = append(fam.Samples, promexp.Sample{
					Labels: []promexp.Label{
						promexp.L("job", run.job),
						promexp.L("workload", run.workload),
						promexp.L("device", "gpu"+strconv.Itoa(dev)),
					},
					Value: float64(f.get(r)),
				})
			}
		}
		promexp.SortSamples(&fam)
		fams = append(fams, fam)
	}
	return fams
}
