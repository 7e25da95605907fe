package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// FuzzCoordinatorJournal feeds adversarial on-disk journal bytes to New and
// holds it to the crash-repair contract of the exactly-once journal, the
// way internal/experiments' FuzzJournal does for the batch journal:
//
//   - New either fails with an ordinary error or succeeds — never panics.
//   - A failed New leaves the file byte-identical to the input.
//   - A successful New may drop only a torn final line (unterminated, or
//     terminated but not valid JSON). Every byte after the kept prefix is
//     a complete record New appended itself: the retry or fail record of a
//     lease orphaned by the restart.
//   - A second New succeeds and leaves the file unchanged: repair and
//     orphan recovery are idempotent.
//   - After an open, Lease never hands out a job that was done or failed
//     at open, however long the retry backoffs have run.
func FuzzCoordinatorJournal(f *testing.F) {
	submit := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"T3","quick":true}}` + "\n"
	lease := func(attempt string) string {
		return `{"op":"lease","id":"fj-1","attempt":` + attempt + `,"worker":"w"}` + "\n"
	}
	f.Add([]byte(nil))
	f.Add([]byte(submit))
	// A complete final record for a job never submitted: corruption, not a
	// torn write.
	f.Add([]byte(submit + `{"op":"lease","id":"fj-9","attempt":1,"worker":"w"}` + "\n"))
	// Orphaned leases, requeued on open, then with the retry budget spent.
	retry := func(attempt string) string {
		return `{"op":"retry","id":"fj-1","attempt":` + attempt + `,"err":"x"}` + "\n"
	}
	f.Add([]byte(submit + lease("1")))
	f.Add([]byte(submit + lease("1") + retry("1") + lease("2") + retry("2") + lease("3")))
	// A lease of a job that is already leased: corruption, with or without
	// a retry before it.
	f.Add([]byte(submit + lease("1") + `{"op":"lease","id":"fj-1","attempt":2,"worker":"v"}` + "\n"))
	f.Add([]byte(submit + lease("1") + retry("1") + lease("2") + lease("3")))
	f.Add([]byte(submit + lease("1") + `{"op":"done","id":"fj-1","attempt":1,"worker":"w","output":"OUT"}` + "\n"))
	// Transitions that end no lease: corruption.
	f.Add([]byte(submit + `{"op":"retry","id":"fj-1","attempt":0,"err":"x"}` + "\n" +
		`{"op":"done","id":"fj-1","attempt":1,"worker":"w","output":"OUT"}` + "\n"))
	// Torn tails, and complete final lines that are valid JSON but not
	// records.
	f.Add([]byte(submit + submit[:len(submit)/2]))
	f.Add([]byte(submit + "NOT JSON\n"))
	f.Add([]byte(submit + "null\n"))
	f.Add([]byte(submit + "{}\n"))
	// Interior corruption.
	f.Add([]byte("GARBAGE\n" + submit))
	f.Add([]byte(submit + submit))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fleet.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		clk := newFakeClock()
		cfg := testConfig(clk)
		cfg.JournalPath = path
		c, err := New(cfg)
		onDisk, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(onDisk, data) {
				t.Fatalf("New failed (%v) and changed the file: %q, input %q", err, onDisk, data)
			}
			return
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		kept := tornTailStripped(data)
		if !bytes.HasPrefix(onDisk, kept) {
			t.Fatalf("New rewrote history: file %q does not start with the kept input %q", onDisk, kept)
		}
		for rest := onDisk[len(kept):]; len(rest) > 0; {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				t.Fatalf("New appended an unterminated line %q", rest)
			}
			var rec journalRec
			if err := json.Unmarshal(rest[:nl], &rec); err != nil || (rec.Op != "retry" && rec.Op != "fail") {
				t.Fatalf("New appended %q, want only orphan-recovery records", rest[:nl])
			}
			rest = rest[nl+1:]
		}

		c2, err := New(cfg)
		if err != nil {
			t.Fatalf("second New on a journal the first one accepted: %v", err)
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, onDisk) {
			t.Fatalf("second New changed the file: %q, want %q (%v)", again, onDisk, err)
		}

		leaseNeverGrantsTerminal(t, cfg, clk)
	})
}

// leaseNeverGrantsTerminal opens the journal once more, notes every job
// that is done or failed, and leases until nothing is granted, with every
// retry backoff run out. Each grant is completed at once, so one worker of
// capacity 1 drains the queue.
func leaseNeverGrantsTerminal(t *testing.T, cfg Config, clk *fakeClock) {
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("third New on a journal the first one accepted: %v", err)
	}
	defer c.Close()
	terminal := map[string]JobState{}
	for id := range c.jobs {
		if st, err := c.Job(id); err == nil && st.State.Terminal() {
			terminal[id] = st.State
		}
	}
	if err := c.Register("oracle", 1, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(cfg.MaxBackoff + time.Second)
	for range len(c.jobs) + 1 {
		g, err := c.Lease("oracle")
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if g == nil {
			return
		}
		if st, ok := terminal[g.JobID]; ok {
			t.Fatalf("Lease granted %s attempt %d, which was %s at open", g.JobID, g.Attempt, st)
		}
		if _, err := c.Complete("oracle", g.JobID, g.Attempt, "OUT", ""); err != nil {
			t.Fatalf("Complete(%s): %v", g.JobID, err)
		}
	}
	t.Fatalf("Lease kept granting after %d jobs", len(c.jobs))
}

// tornTailStripped is data minus the final line jsonl treats as torn: an
// unterminated one, or a terminated one that is not valid JSON.
func tornTailStripped(data []byte) []byte {
	nl := bytes.LastIndexByte(data, '\n')
	if nl < len(data)-1 {
		return data[:nl+1]
	}
	if len(data) == 0 {
		return data
	}
	start := bytes.LastIndexByte(data[:nl], '\n') + 1
	if !json.Valid(data[start:nl]) {
		return data[:start]
	}
	return data
}

// The replay fuzz's operations, chosen by one input byte each: the low
// three bits pick the operation, the rest pick its tenant, worker or grant.
const (
	opSubmit = iota
	opLease
	opSucceed
	opFail
	opStale
	opDuplicate
	opHeartbeat
	opAdvance
)

// FuzzCoordinatorReplay drives a journaled coordinator under the fake clock
// through the operations the input bytes choose, then opens a second
// coordinator on the same journal without closing the first, as a crash
// would, and requires replay to rebuild what the live calls built:
//
//   - the same jobs and the same job counter;
//   - every job that was not leased at the crash with an equal JobStatus;
//   - every job that was leased at the crash queued at the same attempt
//     with the restart reason, or failed if its retry budget is spent;
//   - each tenant's queue as the live one, followed by its requeued
//     orphans in submission order.
func FuzzCoordinatorReplay(f *testing.F) {
	f.Add([]byte{opSubmit, opLease, opSucceed})
	f.Add([]byte{opSubmit, opSubmit | 8, opLease, opLease | 8, opAdvance, opHeartbeat, opLease, opFail | 8})
	f.Add([]byte{opSubmit, opSubmit | 8, opSubmit, opLease, opLease, opLease | 8, opAdvance | 8, opLease | 8})
	f.Add([]byte{opSubmit, opLease, opFail, opAdvance, opAdvance, opLease, opFail, opAdvance, opAdvance, opLease, opDuplicate, opStale})
	f.Add([]byte{opSubmit, opLease, opSucceed, opDuplicate, opStale, opSubmit | 8, opLease | 8, opAdvance | 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		clk := newFakeClock()
		cfg := testConfig(clk)
		cfg.JournalPath = filepath.Join(t.TempDir(), "fleet.journal")
		live, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		workers := []string{"w1", "w2"}
		for _, w := range workers {
			mustRegister(t, live, w, 2)
		}
		type held struct {
			worker string
			g      *LeaseGrant
		}
		var grants []held
		for _, b := range ops {
			op, arg := int(b&7), int(b>>3)
			w := workers[arg%2]
			switch op {
			case opSubmit:
				if _, err := live.Submit(JobSpec{Tenant: []string{"a", "b"}[arg%2], Experiment: "T3", Quick: true}); err != nil && !errors.Is(err, ErrQuota) {
					t.Fatalf("Submit: %v", err)
				}
			case opLease:
				g, err := live.Lease(w)
				if err != nil {
					t.Fatalf("Lease(%s): %v", w, err)
				}
				if g != nil {
					grants = append(grants, held{w, g})
				}
			case opHeartbeat:
				if err := live.Heartbeat(w); err != nil {
					t.Fatalf("Heartbeat(%s): %v", w, err)
				}
			case opAdvance:
				clk.Advance([]time.Duration{cfg.LeaseTTL, cfg.HeartbeatTimeout}[arg%2] + time.Second)
			default: // a report on one of the grants
				if len(grants) == 0 {
					continue
				}
				h := grants[arg%len(grants)]
				out, attempt, errMsg, times := "OUT-"+h.g.JobID, h.g.Attempt, "", 1
				switch op {
				case opFail:
					out, errMsg = "", "boom"
				case opStale:
					attempt--
				case opDuplicate:
					times = 2
				}
				for range times {
					if _, err := live.Complete(h.worker, h.g.JobID, attempt, out, errMsg); err != nil {
						t.Fatalf("Complete(%s attempt %d): %v", h.g.JobID, attempt, err)
					}
				}
			}
		}

		// Crash: the first coordinator is never closed.
		re, err := New(cfg)
		if err != nil {
			t.Fatalf("New on the live journal: %v", err)
		}
		defer re.Close()
		if len(re.jobs) != len(live.jobs) || re.lastJobNum != live.lastJobNum {
			t.Fatalf("replay holds %d jobs up to %d, live %d up to %d", len(re.jobs), re.lastJobNum, len(live.jobs), live.lastJobNum)
		}
		var orphans []*jobRec
		for id, lj := range live.jobs {
			rj := re.jobs[id]
			if rj == nil {
				t.Fatalf("replay lost %s", id)
			}
			got := re.jobStatusLocked(rj)
			want := live.jobStatusLocked(lj)
			if lj.State == JobLeased {
				orphans = append(orphans, lj)
				want.State, want.Worker = JobQueued, ""
				if lj.Attempt >= cfg.MaxAttempts {
					want.State = JobFailed
				}
				want.LastErr = fmt.Sprintf("lease lost: coordinator restarted during attempt %d on worker %s", lj.Attempt, lj.Worker)
			}
			if got != want {
				t.Fatalf("%s after replay = %+v, want %+v", id, got, want)
			}
		}
		slices.SortFunc(orphans, bySubmission)
		if !slices.Equal(re.tenantsSeq, live.tenantsSeq) {
			t.Fatalf("replay's tenants %v, live %v", re.tenantsSeq, live.tenantsSeq)
		}
		for _, tenant := range live.tenantsSeq {
			want := queueIDs(live, tenant)
			for _, j := range orphans {
				if j.Spec.Tenant == tenant && j.Attempt < cfg.MaxAttempts {
					want = append(want, j.ID)
				}
			}
			if got := queueIDs(re, tenant); !slices.Equal(got, want) {
				t.Fatalf("tenant %s queue after replay = %v, want %v", tenant, got, want)
			}
		}
	})
}
