package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// queueIDs lists a tenant's queue, front first.
func queueIDs(c *Coordinator, tenant string) []string {
	var ids []string
	for _, j := range c.queues[tenant] {
		ids = append(ids, j.ID)
	}
	return ids
}

// journalTail is the journal at path after its first n bytes.
func journalTail(t *testing.T, path string, n int) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b[n:])
}

// recLine is rec as the coordinator journals it.
func recLine(t *testing.T, rec journalRec) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// Six leases orphaned by a restart are requeued in submission order, so
// every open of the same journal appends the same records and leaves the
// same queues. They used to be requeued in map order: 20 opens of one
// journal appended 5 different tails.
func TestOrphansRequeueInSubmissionOrder(t *testing.T) {
	var journal, want strings.Builder
	for n := 1; n <= 6; n++ {
		spec := JobSpec{Tenant: []string{"a", "b"}[n%2], Experiment: "T3", Quick: true}
		journal.WriteString(recLine(t, journalRec{Op: "submit", ID: fmt.Sprintf("fj-%d", n), Spec: &spec}))
		want.WriteString(recLine(t, journalRec{Op: "retry", ID: fmt.Sprintf("fj-%d", n), Attempt: 1,
			Err: "lease lost: coordinator restarted during attempt 1 on worker w"}))
	}
	for _, n := range []int{6, 1, 4, 2, 5, 3} {
		journal.WriteString(recLine(t, journalRec{Op: "lease", ID: fmt.Sprintf("fj-%d", n), Attempt: 1, Worker: "w"}))
	}
	for i := 0; i < 20; i++ {
		path := filepath.Join(t.TempDir(), "fleet.journal")
		if err := os.WriteFile(path, []byte(journal.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(newFakeClock())
		cfg.JournalPath = path
		c := newTestCoord(t, cfg)
		if got := journalTail(t, path, journal.Len()); got != want.String() {
			t.Fatalf("open %d appended\n%s\nwant\n%s", i, got, want.String())
		}
		if a, b := queueIDs(c, "a"), queueIDs(c, "b"); !slices.Equal(a, []string{"fj-2", "fj-4", "fj-6"}) || !slices.Equal(b, []string{"fj-1", "fj-3", "fj-5"}) {
			t.Fatalf("open %d left queues a %v and b %v, want them in submission order", i, a, b)
		}
	}
}

// Six leases held by three workers that all expire in one sweep are
// requeued in submission order. They used to follow map order over the
// workers and their Active sets: 20 runs journaled 6 different orders.
func TestSweepRequeuesInSubmissionOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		clk := newFakeClock()
		cfg := testConfig(clk)
		cfg.JournalPath = filepath.Join(t.TempDir(), "fleet.journal")
		c := newTestCoord(t, cfg)
		for _, w := range []string{"w1", "w2", "w3"} {
			mustRegister(t, c, w, 2)
		}
		for range 6 {
			mustSubmit(t, c, "a", "T3")
		}
		holder := map[string]string{}
		for _, w := range []string{"w3", "w1", "w2", "w3", "w1", "w2"} {
			g := mustLease(t, c, w)
			holder[g.JobID] = w
		}
		var want strings.Builder
		for n := 1; n <= 6; n++ {
			id := fmt.Sprintf("fj-%d", n)
			want.WriteString(recLine(t, journalRec{Op: "retry", ID: id, Attempt: 1,
				Err: "lease expired during attempt 1 on worker " + holder[id]}))
		}
		before, err := os.ReadFile(cfg.JournalPath)
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(cfg.LeaseTTL + time.Second)
		if n := c.State().Counters.LeasesExpired; n != 6 {
			t.Fatalf("run %d: %d leases expired, want 6", i, n)
		}
		if got := journalTail(t, cfg.JournalPath, len(before)); got != want.String() {
			t.Fatalf("run %d: the sweep journaled\n%s\nwant\n%s", i, got, want.String())
		}
		if got := queueIDs(c, "a"); !slices.Equal(got, []string{"fj-1", "fj-2", "fj-3", "fj-4", "fj-5", "fj-6"}) {
			t.Fatalf("run %d: queue after the sweep = %v, want submission order", i, got)
		}
	}
}

// Every protocol error crosses the real Handler and Client as the sentinel
// the coordinator returned, for every verb that can return it, and as no
// other sentinel: the handlers and the Client read one status table. A
// coordinator whose journal appender is closed refuses each verb that
// journals with ErrJournal, whose answer does not name the journal's file.
func TestProtocolErrorsRoundTrip(t *testing.T) {
	cfg := testConfig(newFakeClock())
	cfg.TenantQuota = 1
	c := newTestCoord(t, cfg)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()

	if err := cl.Register(ctx, "w", 1, 0); err != nil {
		t.Fatal(err)
	}
	if g, err := cl.Lease(ctx, "w"); g != nil || err != nil {
		t.Fatalf("Lease on an empty queue = %+v, %v; want nil, nil", g, err)
	}
	done, err := cl.Submit(ctx, JobSpec{Tenant: "t", Experiment: "T3", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cl.Lease(ctx, "w")
	if err != nil || g == nil || g.JobID != done.ID {
		t.Fatalf("Lease = %+v, %v; want a grant of %s", g, err, done.ID)
	}
	if cs, err := cl.Complete(ctx, "w", g.JobID, g.Attempt, "OUT", ""); err != nil || cs != CompleteRecorded {
		t.Fatalf("Complete = %v, %v; want recorded", cs, err)
	}
	if _, err := cl.Submit(ctx, JobSpec{Tenant: "q", Experiment: "T3", Quick: true}); err != nil {
		t.Fatal(err)
	}

	// A journaled coordinator with one job leased and one queued, then its
	// appender closed: the next append of each verb fails.
	jcfg := testConfig(newFakeClock())
	jcfg.JournalPath = filepath.Join(t.TempDir(), "fleet.journal")
	jc, err := New(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	jsrv := httptest.NewServer(jc.Handler())
	defer jsrv.Close()
	jcl := NewClient(jsrv.URL)
	if err := jcl.Register(ctx, "w", 2, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := jcl.Submit(ctx, JobSpec{Tenant: "t", Experiment: "T3", Quick: true}); err != nil {
			t.Fatal(err)
		}
	}
	jg, err := jcl.Lease(ctx, "w")
	if err != nil || jg == nil {
		t.Fatalf("Lease = %+v, %v; want a grant", jg, err)
	}
	jc.ap.Close()

	for _, tc := range []struct {
		verb string
		call func() error
		want error
	}{
		{"submit", func() error {
			_, err := cl.Submit(ctx, JobSpec{Tenant: "q", Experiment: "T4", Quick: true})
			return err
		}, ErrQuota},
		{"heartbeat", func() error { return cl.Heartbeat(ctx, "nobody") }, ErrUnknownWorker},
		{"lease", func() error {
			_, err := cl.Lease(ctx, "nobody")
			return err
		}, ErrUnknownWorker},
		{"renew", func() error { return cl.Renew(ctx, "w", done.ID, g.Attempt) }, ErrStale},
		{"complete", func() error {
			_, err := cl.Complete(ctx, "w", "fj-404", 1, "OUT", "")
			return err
		}, ErrNoSuchJob},
		{"complete", func() error {
			_, err := cl.Complete(ctx, "w", done.ID, g.Attempt, "OTHER", "")
			return err
		}, ErrMismatch},
		{"job", func() error {
			_, err := cl.Job(ctx, "fj-404")
			return err
		}, ErrNoSuchJob},
		{"submit with the journal closed", func() error {
			_, err := jcl.Submit(ctx, JobSpec{Tenant: "t", Experiment: "T3", Quick: true})
			return err
		}, ErrJournal},
		{"lease with the journal closed", func() error {
			_, err := jcl.Lease(ctx, "w")
			return err
		}, ErrJournal},
		{"complete with the journal closed", func() error {
			_, err := jcl.Complete(ctx, "w", jg.JobID, jg.Attempt, "OUT", "")
			return err
		}, ErrJournal},
	} {
		err := tc.call()
		for _, e := range errStatus {
			if errors.Is(err, e.err) != (e.err == tc.want) {
				t.Errorf("%s: error %v; want only %v", tc.verb, err, tc.want)
				break
			}
		}
		if err != nil && strings.Contains(err.Error(), filepath.Dir(jcfg.JournalPath)) {
			t.Errorf("%s: error %q names the journal's directory", tc.verb, err)
		}
	}
}
