package metrics

import "uvmdiscard/internal/sim"

// CounterState is a plain-data, JSON-serializable image of every counter a
// Collector accumulates. It is the checkpoint payload for metrics: a
// snapshot taken mid-run with State is restored by Reset + AddState on a
// fresh collector, after which the resumed run's counters continue exactly
// where the interrupted run's left off — the byte-identical-output invariant
// extends to every reported counter.
//
// Residency gauges are deliberately absent: they are point-in-time views the
// driver republishes (PublishResidency), not accumulated state.
type CounterState struct {
	Bytes [2][5]uint64 `json:"bytes"`
	Ops   [2][5]int64  `json:"ops"`

	Evicts   [4]int64 `json:"evicts"`
	SavedH2D uint64   `json:"saved_h2d"`
	SavedD2H uint64   `json:"saved_d2h"`

	PeerBytes uint64 `json:"peer_bytes"`
	PeerOps   int64  `json:"peer_ops"`
	PeerSaved uint64 `json:"peer_saved"`

	FaultBatches  int64 `json:"fault_batches"`
	FaultedBlocks int64 `json:"faulted_blocks"`
	ZeroBlocks    int64 `json:"zero_blocks"`
	ZeroPages     int64 `json:"zero_pages"`
	UnmapBlocks   int64 `json:"unmap_blocks"`
	MapBlocks     int64 `json:"map_blocks"`
	DiscardCalls  int64 `json:"discard_calls"`
	DiscardBlocks int64 `json:"discard_blocks"`

	MigrateRetries int64  `json:"migrate_retries"`
	UnmapRetries   int64  `json:"unmap_retries"`
	FaultReplays   int64  `json:"fault_replays"`
	DegradedBlocks int64  `json:"degraded_blocks"`
	DegradedBytes  uint64 `json:"degraded_bytes"`
	PoisonedChunks int64  `json:"poisoned_chunks"`
	PoisonLost     uint64 `json:"poison_lost"`
	PoisonSaved    uint64 `json:"poison_saved"`

	APITime map[string]sim.Time `json:"api_time,omitempty"`
}

// fields returns pointers to s's counter fields, indexed by counter: the
// one place the image's names meet the counter list. Each is a *uint64 or
// an *int64.
func (s *CounterState) fields() [numCounters]any {
	f := [numCounters]any{
		cSavedH2D: &s.SavedH2D, cSavedD2H: &s.SavedD2H,
		cPeerBytes: &s.PeerBytes, cPeerOps: &s.PeerOps, cPeerSaved: &s.PeerSaved,
		cFaultBatches: &s.FaultBatches, cFaultedBlocks: &s.FaultedBlocks,
		cZeroBlocks: &s.ZeroBlocks, cZeroPages: &s.ZeroPages,
		cUnmapBlocks: &s.UnmapBlocks, cMapBlocks: &s.MapBlocks,
		cDiscardCalls: &s.DiscardCalls, cDiscardBlocks: &s.DiscardBlocks,
		cMigrateRetries: &s.MigrateRetries, cUnmapRetries: &s.UnmapRetries,
		cFaultReplays:   &s.FaultReplays,
		cDegradedBlocks: &s.DegradedBlocks, cDegradedBytes: &s.DegradedBytes,
		cPoisonedChunks: &s.PoisonedChunks, cPoisonLost: &s.PoisonLost, cPoisonSaved: &s.PoisonSaved,
	}
	for src := range s.Evicts {
		f[cEvicts+counter(src)] = &s.Evicts[src]
	}
	for dir := Direction(0); dir < numDirections; dir++ {
		for cause := Cause(0); cause < numCauses; cause++ {
			f[cBytes+transfer(dir, cause)] = &s.Bytes[dir][cause]
			f[cOps+transfer(dir, cause)] = &s.Ops[dir][cause]
		}
	}
	return f
}

// State captures every counter into a CounterState. Like Snapshot, each
// counter is read atomically; a state captured after the owning run has
// quiesced (the only point checkpoints are taken) is exact.
func (c *Collector) State() CounterState {
	var s CounterState
	for k, f := range s.fields() {
		switch p := f.(type) {
		case *uint64:
			*p = c.n[k].Load()
		case *int64:
			*p = int64(c.n[k].Load())
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.apiTime) > 0 {
		s.APITime = make(map[string]sim.Time, len(c.apiTime))
		for k, v := range c.apiTime {
			s.APITime[k] = v
		}
	}
	return s
}

// AddState adds a previously captured CounterState into c. Restore pattern:
// Reset then AddState leaves the collector carrying exactly the snapshot's
// counters; AddState alone folds a snapshot into a cumulative collector.
func (c *Collector) AddState(s CounterState) {
	for k, f := range s.fields() {
		switch p := f.(type) {
		case *uint64:
			c.n[k].Add(*p)
		case *int64:
			c.n[k].Add(uint64(*p))
		}
	}
	if len(s.APITime) > 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.apiTime == nil {
			c.apiTime = make(map[string]sim.Time, len(s.APITime))
		}
		for k, v := range s.APITime {
			c.apiTime[k] += v
		}
	}
}
