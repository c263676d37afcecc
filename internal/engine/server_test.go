package engine

import "testing"

// TestNewServerClampsCapacity: unitsPerCycle <= 0 used to yield a
// zero-capacity server whose Reserve spun forever in its units>0 loop.
// It now clamps to one unit per cycle, like width and windowBuckets.
func TestNewServerClampsCapacity(t *testing.T) {
	for _, units := range []int{0, -3} {
		s := NewServer(units, 8, 16)
		// 24 units at 1 unit/cycle fill buckets 0..2; service starts at 0.
		if got := s.Reserve(0, 24); got != 0 {
			t.Errorf("NewServer(%d,8,16).Reserve(0,24) = %d, want 0", units, got)
		}
		// The next unit must queue into bucket 3 (cycle 24), proving the
		// clamped capacity is exactly 1 unit/cycle.
		if got := s.Reserve(0, 1); got != 24 {
			t.Errorf("NewServer(%d,8,16) follow-up Reserve = %d, want 24", units, got)
		}
	}
}

// TestServerClampsOtherParams documents the existing width/window
// clamps alongside the capacity clamp.
func TestServerClampsOtherParams(t *testing.T) {
	s := NewServer(1, 0, 0)
	if s.width != 1 {
		t.Errorf("width = %d, want clamp to 1", s.width)
	}
	if len(s.ring) != 4 {
		t.Errorf("window = %d buckets, want clamp to 4", len(s.ring))
	}
	if got := s.Reserve(5, 2); got != 5 {
		t.Errorf("Reserve(5,2) = %d, want 5", got)
	}
}

// TestZeroAllocSteadyState: the calendar is a fixed ring, so reserving —
// in order, out of order, spilling and sliding the window — allocates
// nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	srv := NewServer(1, 4, 64)
	var at Time
	churn := func() {
		for i := 0; i < 256; i++ {
			at += Time(i % 7)
			srv.Reserve(at, 1+i%5)
			srv.Reserve(at-MinTime(at, 300), 1) // behind the window
		}
		srv.Reserve(at+10_000, 1) // slide far ahead
	}
	if avg := testing.AllocsPerRun(50, churn); avg != 0 {
		t.Errorf("steady-state Reserve allocated %.1f times per churn, want 0", avg)
	}
}
