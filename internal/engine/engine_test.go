package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestServerBackfillsIdleCapacity(t *testing.T) {
	srv := NewServer(1, 1, 64)
	// Reserve far in the future first.
	late := srv.Reserve(50, 1)
	if late != 50 {
		t.Errorf("late reservation at %d, want 50", late)
	}
	// An earlier request must still get the idle capacity before it —
	// the whole point versus a scalar busy-until.
	early := srv.Reserve(10, 1)
	if early != 10 {
		t.Errorf("early reservation at %d, want 10 (no phantom queueing)", early)
	}
}

func TestServerQueuesUnderOverload(t *testing.T) {
	srv := NewServer(1, 1, 128)
	// Saturate cycle 10: capacity is 1/cycle, so the k-th request waits
	// about k cycles.
	var last Time
	for k := 0; k < 20; k++ {
		last = srv.Reserve(10, 1)
	}
	if last < 25 || last > 40 {
		t.Errorf("20th reservation at %d, want pushed to ~29", last)
	}
}

func TestServerMultiUnitSpills(t *testing.T) {
	srv := NewServer(1, 4, 64) // 4 units per bucket
	start := srv.Reserve(0, 10)
	if start != 0 {
		t.Errorf("start %d, want 0", start)
	}
	// The 10 units filled buckets 0..2; a new request at 0 lands where
	// capacity remains.
	next := srv.Reserve(0, 4)
	if next < 8 {
		t.Errorf("next start %d, want >= 8 (first two buckets full)", next)
	}
}

func TestServerWindowSlide(t *testing.T) {
	srv := NewServer(1, 8, 16) // window covers 128 cycles
	if got := srv.Reserve(0, 1); got != 0 {
		t.Fatalf("first reservation at %d", got)
	}
	// Reserve far beyond the window: it must slide, not panic.
	far := srv.Reserve(10_000, 1)
	if far < 10_000 {
		t.Errorf("far reservation at %d, want >= 10000", far)
	}
	// Requests older than the slid window clamp to its base.
	old := srv.Reserve(0, 1)
	if old == 0 {
		t.Error("ancient reservation granted at 0 after window slid")
	}
}

func TestServerCapacityProperty(t *testing.T) {
	// Property: with capacity c/cycle, n same-time requests of 1 unit
	// finish within about n/c cycles of the request time.
	prop := func(nReq uint8, capacity uint8) bool {
		n := int(nReq%50) + 1
		c := int(capacity%4) + 1
		srv := NewServer(c, 4, 256)
		var last Time
		for i := 0; i < n; i++ {
			last = srv.Reserve(100, 1)
		}
		bound := Time(100 + n/c + 8)
		return last <= bound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Error("MaxTime wrong")
	}
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 {
		t.Error("MinTime wrong")
	}
}

// TestSchedulingInPastClamps: once the window has slid, a reservation
// older than its base is granted at the base (the past is full), and
// queues behind whatever already holds the base bucket.
func TestSchedulingInPastClamps(t *testing.T) {
	srv := NewServer(1, 8, 16)
	srv.Reserve(10_000, 1) // slide the window far ahead
	base := srv.base
	if base == 0 || base > 10_000 {
		t.Fatalf("window base %d after sliding to 10000", base)
	}
	if got := srv.Reserve(0, 1); got != base {
		t.Errorf("past reservation at %d, want clamped to base %d", got, base)
	}
	srv.Reserve(base, 7) // fill the rest of the base bucket
	if got := srv.Reserve(0, 1); got != base+8 {
		t.Errorf("past reservation behind a full base bucket at %d, want %d", got, base+8)
	}
}

// TestAdvanceNeverRewinds: reservations arriving out of time order may
// slide the window forward but never back, and no grant starts before
// its requested time.
func TestAdvanceNeverRewinds(t *testing.T) {
	srv := NewServer(2, 4, 32)
	rng := rand.New(rand.NewSource(1))
	var at Time
	horizon := srv.Horizon()
	for i := 0; i < 5000; i++ {
		// Mostly forward, with frequent jumps back behind the window.
		if rng.Intn(4) == 0 {
			at -= MinTime(at, Time(rng.Intn(400)))
		} else {
			at += Time(rng.Intn(60))
		}
		if got := srv.Reserve(at, 1+rng.Intn(6)); got < at {
			t.Fatalf("step %d: reservation at %d granted at %d", i, at, got)
		}
		if h := srv.Horizon(); h < horizon {
			t.Fatalf("step %d: window rewound from %d to %d", i, horizon, h)
		} else {
			horizon = h
		}
	}
}
