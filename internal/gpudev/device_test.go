package gpudev

import (
	"fmt"
	"testing"
	"testing/quick"

	"uvmdiscard/internal/units"
)

func newTestDevice(t *testing.T, blocks int, reservedBlocks int) *Device {
	t.Helper()
	d, err := NewDevice(Generic(units.Size(blocks)*units.BlockSize),
		units.Size(reservedBlocks)*units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range []Profile{RTX3080Ti(), GTX1070(), Generic(units.GiB)} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileValidationErrors(t *testing.T) {
	bad := Generic(units.GiB)
	bad.MemoryBytes = units.KiB
	if bad.Validate() == nil {
		t.Error("tiny memory accepted")
	}
	bad = Generic(units.GiB)
	bad.LocalBandwidth = 0
	if bad.Validate() == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = Generic(units.GiB)
	bad.ComputeTFLOPS = -1
	if bad.Validate() == nil {
		t.Error("negative compute accepted")
	}
	bad = Generic(units.GiB)
	bad.UnmapPerBlock = -1
	if bad.Validate() == nil {
		t.Error("negative cost accepted")
	}
}

func TestZeroTimes(t *testing.T) {
	p := RTX3080Ti()
	// Whole-block zeroing must be faster per byte than page-wise zeroing.
	blockRate := float64(units.BlockSize) / p.ZeroTimeBlock().Seconds()
	pageRate := float64(units.BlockSize) / p.ZeroTimePages(units.PagesPerBlock).Seconds()
	if blockRate <= pageRate {
		t.Errorf("block zero rate %v not faster than page-wise %v", blockRate, pageRate)
	}
	if p.ZeroTimePages(0) != 0 {
		t.Error("zeroing 0 pages should be free")
	}
}

func TestNewDeviceReservation(t *testing.T) {
	d := newTestDevice(t, 10, 4)
	if d.TotalChunks() != 10 {
		t.Errorf("total = %d", d.TotalChunks())
	}
	if d.UsableChunks() != 6 {
		t.Errorf("usable = %d", d.UsableChunks())
	}
	if d.UsableBytes() != 6*units.BlockSize {
		t.Errorf("usable bytes = %d", d.UsableBytes())
	}
	if d.QueueLen(QueueReserved) != 4 || d.QueueLen(QueueFree) != 6 {
		t.Errorf("queues: reserved=%d free=%d", d.QueueLen(QueueReserved), d.QueueLen(QueueFree))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestNewDeviceRejectsFullReservation(t *testing.T) {
	if _, err := NewDevice(Generic(4*units.BlockSize), 4*units.BlockSize); err == nil {
		t.Error("full reservation accepted")
	}
	if _, err := NewDevice(Generic(4*units.BlockSize), 5*units.BlockSize); err == nil {
		t.Error("over-reservation accepted")
	}
}

func TestQueueKindString(t *testing.T) {
	names := map[QueueKind]string{
		QueueNone: "none", QueueFree: "free", QueueUnused: "unused",
		QueueUsed: "used", QueueDiscarded: "discarded", QueueReserved: "reserved",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if QueueKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}

func TestPopFreeExhaustion(t *testing.T) {
	d := newTestDevice(t, 4, 0)
	for i := 0; i < 4; i++ {
		c := d.PopFree()
		if c == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		if c.Queue() != QueueNone {
			t.Errorf("popped chunk on queue %v", c.Queue())
		}
		d.PushUsed(c)
	}
	if d.PopFree() != nil {
		t.Error("pop from empty free queue returned a chunk")
	}
	if d.QueueLen(QueueUsed) != 4 {
		t.Errorf("used = %d", d.QueueLen(QueueUsed))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLRUOrder(t *testing.T) {
	d := newTestDevice(t, 4, 0)
	var cs []*Chunk
	for i := 0; i < 3; i++ {
		c := d.PopFree()
		d.PushUsed(c)
		cs = append(cs, c)
	}
	if d.LRUVictim() != cs[0] {
		t.Fatal("oldest push should be LRU victim")
	}
	d.Touch(cs[0]) // cs[0] becomes MRU
	if d.LRUVictim() != cs[1] {
		t.Error("after touch, cs[1] should be LRU victim")
	}
	d.Touch(cs[1])
	d.Touch(cs[2])
	if d.LRUVictim() != cs[0] {
		t.Error("after touching all, cs[0] should again be LRU victim")
	}
}

// TestMoveStretchEqualsDetachAndPush moves every contiguous stretch of a
// six-chunk queue to the tail of the used and of the discarded queue, with
// the other queue empty or not, and requires the queues a Detach and push
// of each of its chunks in turn leaves, with Next agreeing with the walk.
func TestMoveStretchEqualsDetachAndPush(t *testing.T) {
	const n = 6
	queues := []QueueKind{QueueUsed, QueueDiscarded}
	push := func(d *Device, k QueueKind, c *Chunk) {
		if k == QueueUsed {
			d.PushUsed(c)
		} else {
			d.PushDiscarded(c)
		}
	}
	// build puts n chunks on queue from, and others on the other queue.
	build := func(from QueueKind, others int) (*Device, []*Chunk) {
		other := QueueDiscarded
		if from == QueueDiscarded {
			other = QueueUsed
		}
		d := newTestDevice(t, n+others+1, 0)
		cs := make([]*Chunk, n)
		for i := range cs {
			cs[i] = d.PopFree()
			push(d, from, cs[i])
		}
		for i := 0; i < others; i++ {
			push(d, other, d.PopFree())
		}
		return d, cs
	}
	ids := func(d *Device) string {
		return fmt.Sprint(d.AppendQueueIDs(nil, QueueUsed), d.AppendQueueIDs(nil, QueueDiscarded))
	}
	for _, from := range queues {
		for _, to := range queues {
			for _, others := range []int{0, 3} {
				for lo := 0; lo < n; lo++ {
					for hi := lo; hi < n; hi++ {
						name := fmt.Sprintf("%v→%v with %d others, stretch %d..%d", from, to, others, lo, hi)
						ref, rcs := build(from, others)
						for i := lo; i <= hi; i++ {
							ref.Detach(rcs[i])
							push(ref, to, rcs[i])
						}
						d, cs := build(from, others)
						d.MoveStretch(cs[lo], cs[hi], hi-lo+1, to, func(i int) *Chunk { return cs[lo+i] })
						if got, want := ids(d), ids(ref); got != want {
							t.Fatalf("%s: queues %v, want %v", name, got, want)
						}
						if err := d.CheckInvariants(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for _, k := range queues {
							q := d.AppendQueueIDs(nil, k)
							for i, id := range q {
								next := d.Next(&d.chunks[id])
								if i == len(q)-1 {
									if next != nil {
										t.Fatalf("%s: Next of the %v tail is %d, want nil", name, k, next.ID())
									}
								} else if next == nil || int32(next.ID()) != q[i+1] {
									t.Fatalf("%s: Next of chunk %d disagrees with the %v queue %v", name, id, k, q)
								}
							}
						}
					}
				}
			}
		}
	}
	for name, move := range map[string]func(d *Device, cs []*Chunk){
		"a stretch that ends off its queue": func(d *Device, cs []*Chunk) {
			d.MoveStretch(cs[0], d.PopFree(), 2, QueueUsed, nil)
		},
		"a stretch to the free queue": func(d *Device, cs []*Chunk) {
			d.MoveStretch(cs[0], cs[1], 2, QueueFree, nil)
		},
		"a chunk off the stretch's queue": func(d *Device, cs []*Chunk) {
			c := d.PopFree()
			d.MoveStretch(cs[0], cs[1], 2, QueueDiscarded, func(i int) *Chunk { return c })
		},
	} {
		func() {
			d, cs := build(QueueUsed, 0)
			defer func() {
				if recover() == nil {
					t.Errorf("moving %s did not panic", name)
				}
			}()
			move(d, cs)
		}()
	}
}

func TestTouchPanicsOffUsedQueue(t *testing.T) {
	d := newTestDevice(t, 2, 0)
	c := d.PopFree()
	defer func() {
		if recover() == nil {
			t.Error("expected panic touching detached chunk")
		}
	}()
	d.Touch(c)
}

func TestDiscardedFIFO(t *testing.T) {
	d := newTestDevice(t, 4, 0)
	a, b := d.PopFree(), d.PopFree()
	d.PushDiscarded(a)
	d.PushDiscarded(b)
	if got := d.PopDiscarded(); got != a {
		t.Error("discarded queue not FIFO")
	}
	if got := d.PopDiscarded(); got != b {
		t.Error("discarded queue not FIFO (second)")
	}
	if d.PopDiscarded() != nil {
		t.Error("empty discarded queue returned chunk")
	}
}

func TestUnusedFIFO(t *testing.T) {
	d := newTestDevice(t, 4, 0)
	a, b := d.PopFree(), d.PopFree()
	d.PushUnused(a)
	d.PushUnused(b)
	if d.PopUnused() != a || d.PopUnused() != b {
		t.Error("unused queue not FIFO")
	}
}

func TestPushFreeClearsState(t *testing.T) {
	d := newTestDevice(t, 2, 0)
	c := d.PopFree()
	c.Owner = 7
	c.PreparedPages = FullyPrepared
	c.NeedsUnmapOnReclaim = true
	d.PushFree(c)
	if c.Owner != 0 || c.PreparedPages != 0 || c.NeedsUnmapOnReclaim {
		t.Error("PushFree did not clear chunk state")
	}
	if c.Queue() != QueueFree {
		t.Errorf("queue = %v", c.Queue())
	}
}

func TestDetach(t *testing.T) {
	d := newTestDevice(t, 3, 0)
	c := d.PopFree()
	d.PushDiscarded(c)
	d.Detach(c)
	if c.Queue() != QueueNone {
		t.Errorf("queue = %v after detach", c.Queue())
	}
	if d.QueueLen(QueueDiscarded) != 0 {
		t.Error("discarded queue still holds detached chunk")
	}
	d.PushUsed(c)
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDoubleDetachPanics(t *testing.T) {
	d := newTestDevice(t, 2, 0)
	c := d.PopFree()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double detach")
		}
	}()
	d.Detach(c)
}

func TestDoublePushPanics(t *testing.T) {
	d := newTestDevice(t, 2, 0)
	c := d.PopFree()
	d.PushUsed(c)
	defer func() {
		if recover() == nil {
			t.Error("expected panic pushing chunk already on a queue")
		}
	}()
	d.PushUnused(c)
}

func TestEachUsedOrder(t *testing.T) {
	d := newTestDevice(t, 5, 0)
	var want []int
	for i := 0; i < 4; i++ {
		c := d.PopFree()
		d.PushUsed(c)
		want = append(want, c.ID())
	}
	var got []int
	d.EachUsed(func(c *Chunk) bool {
		got = append(got, c.ID())
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d chunks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	d.EachUsed(func(*Chunk) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

// Property: a random sequence of legal queue operations preserves the
// invariant that every chunk is on exactly one queue (or deliberately
// detached) and that queue bookkeeping matches reachability.
func TestQueueOperationsPreserveInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		d, err := NewDevice(Generic(8*units.BlockSize), 0)
		if err != nil {
			return false
		}
		var detached []*Chunk
		for _, op := range ops {
			switch op % 6 {
			case 0:
				if c := d.PopFree(); c != nil {
					detached = append(detached, c)
				}
			case 1:
				if c := d.PopUnused(); c != nil {
					detached = append(detached, c)
				}
			case 2:
				if c := d.PopDiscarded(); c != nil {
					detached = append(detached, c)
				}
			case 3:
				if len(detached) > 0 {
					c := detached[len(detached)-1]
					detached = detached[:len(detached)-1]
					d.PushUsed(c)
				}
			case 4:
				if len(detached) > 0 {
					c := detached[len(detached)-1]
					detached = detached[:len(detached)-1]
					d.PushDiscarded(c)
				}
			case 5:
				if v := d.LRUVictim(); v != nil {
					d.Detach(v)
					d.PushUnused(v)
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestA100Profile(t *testing.T) {
	p := A100()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The §2.3 quotes: local bandwidth over 2 TB/s, 80 GB class.
	if p.LocalBandwidth < 2e12 {
		t.Errorf("A100 local bandwidth = %v, want > 2 TB/s", p.LocalBandwidth)
	}
	if p.MemoryBytes < 40_000_000_000 {
		t.Errorf("A100 memory = %d", p.MemoryBytes)
	}
}

func TestPoisonedQueueQuarantine(t *testing.T) {
	d := newTestDevice(t, 8, 0)
	c := d.PopFree()
	c.Owner = 9
	c.PreparedPages = 3
	c.NeedsUnmapOnReclaim = true
	d.PushPoisoned(c)
	if q := c.Queue(); q != QueuePoisoned {
		t.Fatalf("queue = %v", q)
	}
	if c.Owner != 0 || c.PreparedPages != 0 || c.NeedsUnmapOnReclaim {
		t.Fatalf("per-use state survived quarantine: %+v", c)
	}
	if got := d.QueueLen(QueuePoisoned); got != 1 {
		t.Fatalf("poisoned len = %d", got)
	}
	// Poison reduces usable capacity; total conservation still holds.
	if got, want := d.UsableChunks(), 7; got != want {
		t.Fatalf("usable = %d, want %d", got, want)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Retirement is permanent: pulling a poisoned chunk back is a bug.
	defer func() {
		if recover() == nil {
			t.Fatal("Detach of a poisoned chunk did not panic")
		}
	}()
	d.Detach(c)
}
