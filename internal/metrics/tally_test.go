package metrics

import "testing"

// Every Add method of a Tally reaches its counters through one Fold, and
// Fold empties the tally, so folding it again adds nothing.
func TestFoldEmptiesTheTally(t *testing.T) {
	var tl Tally
	tl.AddTransfer(H2D, CauseRemote, 7)
	tl.AddPeer(17)
	tl.AddPeerSaved(19)
	tl.AddMigrateRetry()
	tl.AddMigrateRetry()
	tl.AddUnmapRetry()
	tl.AddFaultReplay(47)
	tl.AddDegraded(53)
	tl.AddPoison(59, 61)
	c := New()
	c.Fold(&tl)
	if tl != (Tally{}) {
		t.Error("Fold left counts in the tally")
	}
	c.Fold(&tl)
	if b, o := c.Bytes(H2D, CauseRemote), c.Ops(H2D, CauseRemote); b != 7 || o != 1 {
		t.Errorf("remote transfers = %d bytes in %d ops, want 7 in 1", b, o)
	}
	if b, o := c.Peer(); b != 17 || o != 1 || c.PeerSaved() != 19 {
		t.Errorf("peer = %d bytes in %d ops, %d saved; want 17, 1, 19", b, o, c.PeerSaved())
	}
	if c.MigrateRetries() != 2 || c.UnmapRetries() != 1 || c.FaultReplays() != 47 {
		t.Errorf("retries = %d migrate, %d unmap, %d replays; want 2, 1, 47",
			c.MigrateRetries(), c.UnmapRetries(), c.FaultReplays())
	}
	if blocks, bytes := c.Degraded(); blocks != 1 || bytes != 53 {
		t.Errorf("degraded = %d blocks, %d bytes; want 1, 53", blocks, bytes)
	}
	if chunks, rec, lost := c.Poisoned(); chunks != 1 || rec != 59 || lost != 61 {
		t.Errorf("poisoned = %d chunks, %d recovered, %d lost; want 1, 59, 61", chunks, rec, lost)
	}
}
