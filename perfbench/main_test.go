package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"affinityalloc/internal/affinityd"

	"affinityalloc/internal/graph"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// TestMetricNamesMatchBenchmarkJSON fails when the metrics the benchmark
// prints differ from those BENCHMARK.json declares, in name, unit or
// direction.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	} else {
		for _, n := range got {
			if workloadFuncs[n] == nil {
				t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", n)
			}
		}
	}
}

// TestResultHasExactlyDeclaredMetrics pins the printed object: every
// declared metric and nothing else, undeclared names refused.
func TestResultHasExactlyDeclaredMetrics(t *testing.T) {
	r := newReport()
	r.metrics["wall_s"] = 1.5
	out, err := r.result(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(endToEnd) || out.Metrics["wall_s"].Value != 1.5 || out.Metrics["wall_s"].Unit != "s" {
		t.Errorf("result metrics = %+v", out.Metrics)
	}
	r.metrics["no_such_metric"] = 1
	if _, err := r.result(endToEnd); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// spin burns CPU in this package, checking the clock rarely so that
// the samples land in spin itself.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileAttribution profiles a busy loop in this package and a
// graph generation, and checks their samples land in "other" and "graph".
func TestProfileAttribution(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		graph.Kronecker(10, 8, 1)
	}
	got, err := p.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if got["other"] < 0.1 || got["graph"] < 0.05 {
		t.Errorf("layer seconds = %v, want other and graph near 0.3 s each", got)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"affinityalloc/internal/engine.(*Server).Reserve": "affinityalloc/internal/engine",
		"runtime.mallocgc":                  "runtime",
		"net/http.(*conn).serve":            "net/http",
		"main.spin":                         "main",
		"internal/runtime/syscall.Syscall6": "internal/runtime/syscall",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestReferenceChecksum pins the benchmark's result hash to the
// workloads' own: a small simulated BFS must match the reference.
func TestReferenceChecksum(t *testing.T) {
	g := graph.Kronecker(9, 8, 3)
	w := workloads.BFS{G: g, GT: g.Transpose(), Src: -1}
	c := cell{label: "bfs", cfg: sys.DefaultConfig(), w: w, mode: sys.AffAlloc}
	run, err := c.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, ok := referenceChecksum(w); !ok || run.res.Checksum != want {
		t.Errorf("simulated checksum %x, reference %x", run.res.Checksum, want)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{1, 2, 3, 4}) != 2.5 || quantile(xs, 0.99) != 5 || quantile(xs, 0.2) != 1 {
		t.Errorf("median/quantile wrong")
	}
}

// TestHostClock checks the scaling to the reference host speed: units
// between calibrations at calibRef keep their time, units where the
// kernel ran twice as long count half, and one preempted calibration
// moves nothing.
func TestHostClock(t *testing.T) {
	h := &hostClock{}
	for i := 0; i < 6; i++ {
		for r := 0; r < calibReps; r++ {
			c := calibRef
			if i >= 3 {
				c = 2 * calibRef
			}
			if i == 1 && r == 0 {
				c = 10 * calibRef // preempted
			}
			h.cals = append(h.cals, c)
		}
		if i < 5 {
			h.units = append(h.units, time.Second)
		}
	}
	got := h.normalized()
	if got[0] != 1 || got[4] != 0.5 {
		t.Errorf("normalized %v, want 1 s first and 0.5 s last", got)
	}
	if m := h.calibMedian(); m != ms(calibRef) && m != ms(2*calibRef) {
		t.Errorf("calibration median %v ms", m)
	}
	if f := (&hostClock{units: []time.Duration{time.Second, time.Second}}).normalized(); f[1] != 1 {
		t.Errorf("without calibrations a unit reads %v s, want its measured 1 s", f[1])
	}
	c := newCalibrator()
	if d := c.measure(); d <= 0 || d > time.Second {
		t.Errorf("calibration kernel took %v", d)
	}
}

var poolGrowthBatches = flag.Int("pool-growth-batches", 0, "run TestPoolGrowth for this many batches (0 skips it)")

// TestPoolGrowth reproduces the pool-growth waste that svc-churn's
// tenant rotation keeps bounded: one tenant of the svc-churn stream,
// never rotated, on a library machine. Every 500 batches it logs the live
// heap and the median batch time, and at the end the share of the in-use
// heap allocated under memsim.(*Space).ExpandPool.
//
//	go test -run TestPoolGrowth -pool-growth-batches 4000 -v
func TestPoolGrowth(t *testing.T) {
	n := *poolGrowthBatches
	if n == 0 {
		t.Skip("set -pool-growth-batches to run")
	}
	lib, _, err := newLibTenant(affinityd.MachineSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen := newTenantGen(1, "pg")
	var batchMs []float64
	for b := 1; b <= n; b++ {
		start := time.Now()
		for _, req := range gen.batch(svcBatchReqs) {
			if p := lib.alloc(req); p.Error != "" {
				t.Fatalf("batch %d: %s: %s", b, p.ID, p.Error)
			}
		}
		batchMs = append(batchMs, ms(time.Since(start)))
		for _, id := range gen.frees(svcLive) {
			if err := lib.free(id); err != nil {
				t.Fatal(err)
			}
		}
		if b%500 == 0 || b == n {
			runtime.GC()
			t.Logf("after %5d batches: live heap %7.1f MB, batch p50 %.3f ms over the last %d",
				b, readRuntime(mHeapLive)[0]/bytesPerMB, median(batchMs), len(batchMs))
			batchMs = batchMs[:0]
		}
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pool, total float64
	for _, s := range samples {
		if len(s.values) < 4 { // [alloc objects, alloc bytes, in-use objects, in-use bytes]
			continue
		}
		total += float64(s.values[3])
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "memsim.(*Space).ExpandPool") {
				pool += float64(s.values[3])
				break
			}
		}
	}
	t.Logf("memsim.(*Space).ExpandPool holds %.0f%% of %.1f MB in use", 100*pool/total, total/bytesPerMB)
	runtime.KeepAlive(lib)
}

// TestChurnClientsConcurrently runs one tenant lifetime on each of two
// concurrent clients against a journaling server (run it with -race), and
// checks the lifetimes' accounting: whole lifetimes, the fault reproducer
// as the only failure, and no failed check.
func TestChurnClientsConcurrently(t *testing.T) {
	s, _, err := startService(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	const clients = 2
	stats := make([]churnStats, clients)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			errs <- churn(context.Background(), s.client(), 1, c, 0, 1, nil, nil, &stats[c])
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for c, st := range stats {
		if st.lifetimes != 1 || st.ops != 709 || st.failed != 1 || len(st.failures) > 0 {
			t.Errorf("client %d: %d lifetimes, %d operations, %d failed, failures %v",
				c, st.lifetimes, st.ops, st.failed, st.failures)
		}
	}
}
