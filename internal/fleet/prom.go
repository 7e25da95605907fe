package fleet

import (
	"fmt"

	"uvmdiscard/internal/promexp"
)

// PromFamilies renders the coordinator's state and counters as Prometheus
// families (the uvmfleet_* exposition on GET /metrics). A scrape sweeps
// first — State does — so dead workers and expired leases are visible even
// on an otherwise idle fleet.
func (c *Coordinator) PromFamilies() []promexp.Family {
	st := c.State()

	workersByState := promexp.Family{
		Name: "uvmfleet_workers",
		Help: "Registered workers by liveness state.",
		Kind: promexp.KindGauge,
	}
	live, dead := 0, 0
	for _, w := range st.Workers {
		if w.Live {
			live++
		} else {
			dead++
		}
	}
	workersByState.Samples = append(workersByState.Samples,
		promexp.Sample{Labels: []promexp.Label{promexp.L("state", "live")}, Value: float64(live)},
		promexp.Sample{Labels: []promexp.Label{promexp.L("state", "dead")}, Value: float64(dead)},
	)

	ratio := promexp.Family{
		Name: "uvmfleet_worker_oversubscription_ratio",
		Help: "Active leases over declared capacity, per worker (placement score input).",
		Kind: promexp.KindGauge,
	}
	active := 0
	for _, w := range st.Workers {
		active += w.Active
		ratio.Samples = append(ratio.Samples, promexp.Sample{
			Labels: []promexp.Label{promexp.L("worker", w.Name)},
			Value:  w.Ratio,
		})
	}
	promexp.SortSamples(&ratio)

	jobs := promexp.Family{
		Name: "uvmfleet_jobs",
		Help: "Jobs by lifecycle state.",
		Kind: promexp.KindGauge,
		Samples: []promexp.Sample{
			{Labels: []promexp.Label{promexp.L("state", "queued")}, Value: float64(st.Jobs.Queued)},
			{Labels: []promexp.Label{promexp.L("state", "leased")}, Value: float64(st.Jobs.Leased)},
			{Labels: []promexp.Label{promexp.L("state", "done")}, Value: float64(st.Jobs.Done)},
			{Labels: []promexp.Label{promexp.L("state", "failed")}, Value: float64(st.Jobs.Failed)},
		},
	}

	depth := promexp.Family{
		Name: "uvmfleet_tenant_queue_depth",
		Help: "Queued jobs per tenant (fair-share dequeue unit).",
		Kind: promexp.KindGauge,
	}
	for _, t := range st.Tenants {
		depth.Samples = append(depth.Samples, promexp.Sample{
			Labels: []promexp.Label{promexp.L("tenant", t.Tenant)},
			Value:  float64(t.Queued),
		})
	}
	promexp.SortSamples(&depth)

	completions := promexp.Family{
		Name: "uvmfleet_completion_reports_total",
		Help: "Result reports by coordinator verdict; duplicate means byte-identical re-report, mismatch means a refused determinism violation.",
		Kind: promexp.KindCounter,
		Samples: []promexp.Sample{
			{Labels: []promexp.Label{promexp.L("verdict", "recorded")}, Value: float64(st.Counters.Completions)},
			{Labels: []promexp.Label{promexp.L("verdict", "duplicate")}, Value: float64(st.Counters.Duplicates)},
			{Labels: []promexp.Label{promexp.L("verdict", "stale")}, Value: float64(st.Counters.StaleReports)},
			{Labels: []promexp.Label{promexp.L("verdict", "mismatch")}, Value: float64(st.Counters.Mismatches)},
		},
	}

	fams := []promexp.Family{
		workersByState,
		ratio,
		jobs,
		promexp.Gauge("uvmfleet_leases_active",
			"Jobs currently held under a live lease.", float64(active)),
		depth,
		promexp.Counter("uvmfleet_jobs_submitted_total",
			"Jobs admitted to the durable queue.", float64(st.Counters.Submitted)),
		promexp.Counter("uvmfleet_quota_rejections_total",
			"Submissions rejected by per-tenant admission quotas.", float64(st.Counters.QuotaRejections)),
		promexp.Counter("uvmfleet_leases_granted_total",
			"Lease grants handed to workers.", float64(st.Counters.LeasesGranted)),
		promexp.Counter("uvmfleet_lease_deferrals_total",
			"Polls deferred because less-loaded workers could absorb the queue.", float64(st.Counters.LeaseDeferrals)),
		promexp.Counter("uvmfleet_lease_renewals_total",
			"Lease renewals accepted.", float64(st.Counters.Renewals)),
		promexp.Counter("uvmfleet_leases_expired_total",
			"Leases expired by TTL or holder death.", float64(st.Counters.LeasesExpired)),
		promexp.Counter("uvmfleet_requeues_total",
			"Failed or expired attempts sent back to the queue.", float64(st.Counters.Requeues)),
		promexp.Counter("uvmfleet_retries_exhausted_total",
			"Jobs failed permanently after exhausting the retry budget.", float64(st.Counters.RetriesExhausted)),
		completions,
		promexp.Counter("uvmfleet_workers_died_total",
			"Workers declared dead by heartbeat timeout.", float64(st.Counters.WorkersDied)),
		promexp.Counter("uvmfleet_workers_revived_total",
			"Workers that came back after being declared dead.", float64(st.Counters.WorkersRevived)),
		promexp.Counter("uvmfleet_orphaned_leases_total",
			"Leases found dangling in the journal at coordinator restart.", float64(st.Counters.OrphanedLeases)),
	}
	return fams
}

// String renders a one-line fleet summary for logs and the uvmfleet banner.
func (s FleetState) String() string {
	live := 0
	for _, w := range s.Workers {
		if w.Live {
			live++
		}
	}
	return fmt.Sprintf("workers %d/%d live, jobs queued=%d leased=%d done=%d failed=%d",
		live, len(s.Workers), s.Jobs.Queued, s.Jobs.Leased, s.Jobs.Done, s.Jobs.Failed)
}
