package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"affinityalloc/internal/backoff"
	"affinityalloc/internal/core"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// renderFig renders one experiment at tiny scale with the given worker
// count.
func renderFig(t *testing.T, id string, jobs int) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	fig, err := e.Run(Options{Scale: Tiny, Seed: 1, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	return buf.String()
}

// TestFig12ParallelByteIdentical: the acceptance property of the
// worker-pool runner — the rendered figure is byte-identical between a
// serial run and an 8-way parallel run.
func TestFig12ParallelByteIdentical(t *testing.T) {
	serial := renderFig(t, "fig12", 1)
	parallel := renderFig(t, "fig12", 8)
	if serial != parallel {
		t.Errorf("fig12 output differs between -j 1 and -j 8:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", serial, parallel)
	}
}

// TestFig13ParallelByteIdentical covers the per-policy cell fan-out.
func TestFig13ParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial := renderFig(t, "fig13", 1)
	parallel := renderFig(t, "fig13", 8)
	if serial != parallel {
		t.Error("fig13 output differs between -j 1 and -j 8")
	}
}

// TestRunCellsDeterministicOrder runs real simulation cells concurrently
// (exercised under -race by CI) and checks results land in input order,
// matching a serial run exactly.
func TestRunCellsDeterministicOrder(t *testing.T) {
	build := func(jobs int) ([]workloads.Result, error) {
		opt := Options{Scale: Tiny, Seed: 1, Jobs: jobs}
		cells := make([]cell, 12)
		for i := range cells {
			i := i
			cells[i] = cell{
				label: fmt.Sprintf("vecadd/Δ%d", i),
				run: func(rec *trace.Recorder) (workloads.Result, error) {
					cfg := baseConfig(opt, core.DefaultPolicy())
					return workloads.Run(cfg, workloads.VecAdd{N: 1 << 10, ForceDelta: i}, sys.AffAlloc)
				},
			}
		}
		return runCells(opt, cells)
	}
	serial, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := build(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Checksum != parallel[i].Checksum ||
			serial[i].Metrics.Cycles != parallel[i].Metrics.Cycles ||
			serial[i].Metrics.FlitHops != parallel[i].Metrics.FlitHops {
			t.Errorf("cell %d differs: serial {cyc %d hops %d} parallel {cyc %d hops %d}",
				i, serial[i].Metrics.Cycles, serial[i].Metrics.FlitHops,
				parallel[i].Metrics.Cycles, parallel[i].Metrics.FlitHops)
		}
	}
}

// TestForEachBoundsConcurrency: no more than Jobs cells run at once, and
// a shared pool bounds cells across forEach calls.
func TestForEachBoundsConcurrency(t *testing.T) {
	const jobs, n = 3, 24
	var cur, peak int64
	opt := Options{Jobs: jobs}
	err := opt.forEach(n, func(i int) error {
		c := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > jobs {
		t.Errorf("observed %d concurrent cells, limit %d", peak, jobs)
	}
}

// TestRunCellsReportsLowestIndexError: every cell runs even when some
// fail, and the reported error is the lowest-index one regardless of
// scheduling.
func TestRunCellsReportsLowestIndexError(t *testing.T) {
	opt := Options{Jobs: 4}
	var ran int64
	cells := make([]cell, 8)
	for i := range cells {
		i := i
		cells[i] = cell{label: fmt.Sprintf("c%d", i), run: func(rec *trace.Recorder) (workloads.Result, error) {
			atomic.AddInt64(&ran, 1)
			if i == 2 || i == 6 {
				return workloads.Result{}, errors.New("boom")
			}
			return workloads.Result{Name: "ok"}, nil
		}}
	}
	_, err := runCells(opt, cells)
	if err == nil || !strings.Contains(err.Error(), "c2") {
		t.Errorf("error %v, want the lowest-index cell c2", err)
	}
	if ran != int64(len(cells)) {
		t.Errorf("%d cells ran, want all %d", ran, len(cells))
	}
}

// TestTimingRecordsCells: per-cell accounting is collected under
// parallel execution and reported deterministically.
func TestTimingRecordsCells(t *testing.T) {
	timing := &Timing{}
	opt := Options{Scale: Tiny, Seed: 1, Jobs: 4, Timing: timing}
	cells := make([]cell, 6)
	for i := range cells {
		i := i
		cells[i] = cell{label: fmt.Sprintf("cell%d", i), run: func(rec *trace.Recorder) (workloads.Result, error) {
			cfg := baseConfig(opt, core.DefaultPolicy())
			return workloads.Run(cfg, workloads.VecAdd{N: 1 << 9, ForceDelta: i}, sys.AffAlloc)
		}}
	}
	if _, err := runCells(opt, cells); err != nil {
		t.Fatal(err)
	}
	n, wall, sim := timing.Summary()
	if n != len(cells) || sim == 0 || wall <= 0 {
		t.Errorf("summary = %d cells, wall %v, sim %d; want %d cells with nonzero totals", n, wall, sim, len(cells))
	}
	recorded := timing.Cells()
	for i, c := range recorded {
		if want := fmt.Sprintf("cell%d", i); c.Label != want {
			t.Errorf("cells[%d].Label = %q, want %q (sorted)", i, c.Label, want)
		}
	}
	var buf bytes.Buffer
	timing.Report(&buf)
	if got := strings.Count(buf.String(), "Mcyc/s"); got != len(cells) {
		t.Errorf("report has %d lines, want %d", got, len(cells))
	}
}

// TestRunAllSubsetMatchesSerial: the combined multi-experiment stream is
// byte-identical for any worker count and ordered by registry.
func TestRunAllSubsetMatchesSerial(t *testing.T) {
	run := func(jobs int) string {
		var buf bytes.Buffer
		err := RunAll(Options{Scale: Tiny, Seed: 1, Jobs: jobs}, &buf,
			map[string]bool{"fig4": true, "t2": true}, nil, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	parallel := run(4)
	if serial != parallel {
		t.Error("RunAll output differs between -j 1 and -j 4")
	}
	fig4 := strings.Index(serial, "### fig4")
	t2 := strings.Index(serial, "### t2")
	if fig4 < 0 || t2 < 0 || fig4 > t2 {
		t.Errorf("experiments out of registry order: fig4 at %d, t2 at %d", fig4, t2)
	}
}

// TestRetryBackoffClamped pins the overflow fix in the retry path:
// RetryBackoff << attempt used to overflow time.Duration at large
// CellRetries (1s of base backoff goes negative at attempt 34); the
// delay must instead saturate at maxRetryBackoff for every attempt.
// The schedule itself lives in internal/backoff (shared with the
// affinityd client); this pins the harness's use of it — same cap, same
// doubling — so the retry loop's contract cannot drift silently.
func TestRetryBackoffClamped(t *testing.T) {
	cases := []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{0, 5, 0}, // no backoff configured
		{time.Millisecond, 0, time.Millisecond},
		{time.Millisecond, 3, 8 * time.Millisecond}, // doubling intact below the cap
		{time.Second, 4, 16 * time.Second},
		{time.Second, 5, maxRetryBackoff},   // first clamped step (32s > 30s)
		{time.Second, 34, maxRetryBackoff},  // would be negative unclamped
		{time.Second, 200, maxRetryBackoff}, // shift count past the word width
		{time.Minute, 0, maxRetryBackoff},   // base already above the cap
	}
	for _, tc := range cases {
		if got := backoff.Delay(tc.base, maxRetryBackoff, tc.attempt); got != tc.want {
			t.Errorf("backoff.Delay(%v, %v, %d) = %v, want %v", tc.base, maxRetryBackoff, tc.attempt, got, tc.want)
		}
		if got := backoff.Delay(tc.base, maxRetryBackoff, tc.attempt); got < 0 || got > maxRetryBackoff {
			t.Errorf("backoff.Delay(%v, %v, %d) = %v out of [0, %v]", tc.base, maxRetryBackoff, tc.attempt, got, maxRetryBackoff)
		}
	}
}

// TestAbandonedTimedOutCellCannotMutateSharedState pins the containment
// contract for timed-out cells: runCellOnce abandons the goroutine of a
// cell that exceeds CellTimeout, and when that goroutine eventually
// completes it must not be able to publish its result anywhere — not
// the result slice, not Timing, not the Collector — nor wedge or panic
// on its result send. The test wedges a cell past its timeout, lets the
// batch finish, then releases the zombie and checks every shared
// surface still shows only the timeout outcome. Run under -race this
// also proves the late completion doesn't race the harness teardown.
func TestAbandonedTimedOutCellCannotMutateSharedState(t *testing.T) {
	release := make(chan struct{})
	zombieDone := make(chan struct{})
	var timing Timing
	var collect Collector
	opt := Options{Jobs: 2, CellTimeout: 30 * time.Millisecond,
		Timing: &timing, Collect: &collect}
	cells := []cell{
		{label: "fast", run: func(rec *trace.Recorder) (workloads.Result, error) {
			return workloads.Result{Checksum: 1,
				Metrics: sys.Metrics{Cycles: 7, Detail: &telemetry.Snapshot{}}}, nil
		}},
		{label: "wedged", run: func(rec *trace.Recorder) (workloads.Result, error) {
			<-release // held past the timeout, completes only when released
			defer close(zombieDone)
			return workloads.Result{Checksum: 0xbad,
				Metrics: sys.Metrics{Cycles: 999, Detail: &telemetry.Snapshot{}}}, nil
		}},
	}

	rs, err := runCells(opt, cells)
	var fails *CellFailures
	if !errors.As(err, &fails) || len(fails.Cells) != 1 || fails.Cells[0].Label != "wedged" {
		t.Fatalf("err = %v, want exactly the wedged cell's timeout", err)
	}

	// The batch is over; now let the abandoned goroutine run to completion
	// and attempt its (dead-lettered) result send.
	close(release)
	<-zombieDone
	// The zombie's wrapping goroutine still has to deliver its outcome to
	// the (now dead-lettered, buffered) channel; give it a moment so a
	// blocking or panicking send would surface here under -race.
	time.Sleep(20 * time.Millisecond)

	if rs[1] != (workloads.Result{}) {
		t.Errorf("timed-out slot holds %+v after zombie completion, want the zero value", rs[1])
	}
	if rs[0].Checksum != 1 {
		t.Errorf("sibling result corrupted: %+v", rs[0])
	}
	for _, ct := range timing.Cells() {
		if ct.Label == "wedged" {
			t.Errorf("zombie published timing %+v after abandonment", ct)
		}
	}
	for _, cc := range collect.Cells() {
		if cc.Label == "wedged" {
			t.Errorf("zombie published telemetry %+v after abandonment", cc)
		}
	}
	if got := len(collect.Cells()); got != 1 {
		t.Errorf("collector holds %d cells, want 1 (the fast sibling)", got)
	}
}
