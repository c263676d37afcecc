package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark prints: its name, unit and which
// direction is better. BENCHMARK.json lists the same names (the package
// test pins that).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cell_p50_ms", "ms", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"place_per_s", "1/s", "higher"},
}

// layers are the program's layers, in the order their host time is
// printed: the repository's packages, the Go runtime (gc) and the
// HTTP/JSON wire. Samples no layer claims land in "other".
var layers = []string{
	"engine", "noc", "cache", "memsim", "stream", "cpu", "topo", "core",
	"workloads", "graph", "dstruct", "sys", "telemetry", "harness",
	"faults", "realloc", "trace", "affinityd", "gc", "wire", "other",
}

// perLayer are the metrics a traced run prints, on every workload; a
// metric that does not apply to a workload reads 0 there.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, l := range layers {
		ds = append(ds, metricDef{l + ".host_s", "s", "lower"})
	}
	return append(ds, []metricDef{
		{"sys.new_ms", "ms", "lower"},
		{"workload.run_s", "s", "lower"},
		{"trace.encode_ms", "ms", "lower"},
		{"trace.decode_ms", "ms", "lower"},
		{"trace.replay_s", "s", "lower"},
		{"affinityd.register_ms", "ms", "lower"},
		{"affinityd.free_ms", "ms", "lower"},
		{"affinityd.recover_s", "s", "lower"},
		{"batch_p50_ms", "ms", "lower"},
		{"affinityd.batch_p99_ms", "ms", "lower"},
		{"affinityd.batch_samples", "count", "higher"},
		{"affinityd.server_request_p50_ms", "ms", "lower"},
		{"affinityd.placement_p50_us", "us", "lower"},
		{"model.sim_kcycles", "kcycles", "lower"},
		{"model.affalloc_speedup", "x", "higher"},
		{"noc.flit_hops", "count", "lower"},
		{"noc.messages", "count", "lower"},
		{"cache.l3_accesses", "count", "lower"},
		{"cache.l3_misses", "count", "lower"},
		{"cache.dram_accesses", "count", "lower"},
		{"cache.l3_busy_cycles", "cycles", "lower"},
		{"cache.dram_queue_cycles", "cycles", "lower"},
		{"stream.elements", "count", "lower"},
		{"stream.remote_ops", "count", "lower"},
		{"stream.migrations", "count", "lower"},
		{"cpu.active_cycles", "cycles", "lower"},
		{"realloc.migrations", "count", "lower"},
		{"harness.cells", "count", "higher"},
		{"affinityd.placements", "count", "higher"},
		{"affinityd.frees", "count", "higher"},
		{"affinityd.tenants", "count", "higher"},
		{"noc.ns_per_flit_hop", "ns", "lower"},
		{"cache.ns_per_l3_access", "ns", "lower"},
		{"harness.sim_mcycles_per_s", "Mcycles/s", "higher"},
		{"core.affinity_ratio", "ratio", "higher"},
		{"affinityd.heap_per_live_mb", "MB/MB", "lower"},
		{"gc.alloc_mb", "MB", "lower"},
		{"gc.cycles", "count", "lower"},
		{"gc.cpu_s", "s", "lower"},
		{"bench.trace_overhead_s", "s", "lower"},
		{"bench.calib_ms", "ms", "lower"},
	}...)
}()

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	failures          []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a failed output check under its name.
func (r *report) check(ok bool, name, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed object with exactly the metrics in defs.
// Metrics a workload does not measure read 0; a metric it sets that is
// declared nowhere is a bug in the benchmark.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := r.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range r.metrics {
		if !declared(name) {
			return result{}, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}

func declared(name string) bool {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return true
		}
	}
	return false
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runRounds runs whole rounds until the next one, if it took as long as
// the last, would end past budget. It always runs at least one round and
// returns each round's wall time.
func runRounds(budget time.Duration, round func() error) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for {
		t := time.Now()
		if err := round(); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t))
		if time.Since(start)+walls[len(walls)-1] > budget {
			return walls, nil
		}
	}
}

// setupReps is how many times every workload sets up; setup_s is the
// median.
const setupReps = 5

// timedSetup runs set-up n times, calibrating around each (calib.go), and
// returns the median duration at the reference host speed and the last
// set-up's value: set-up time is reported as a median so that one slow
// repetition does not move it.
func timedSetup[T any](cal *calibrator, n int, setup func() (T, error)) (T, float64, error) {
	var v T
	clk := newHostClock(cal, true)
	clk.calibrate()
	for i := 0; i < n; i++ {
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		clk.unit(time.Since(start))
		clk.calibrate()
	}
	return v, median(clk.normalized()), nil
}

// runtime/metrics names the benchmark reads.
const (
	mHeapLive  = "/gc/heap/live:bytes"
	mAllocs    = "/gc/heap/allocs:bytes"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	bytesPerMB = 1 << 20
)

func readRuntime(names ...string) []float64 {
	ss := make([]metrics.Sample, len(names))
	for i, n := range names {
		ss[i].Name = n
	}
	metrics.Read(ss)
	out := make([]float64, len(ss))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// gcStats is a reading of the Go runtime's cumulative GC counters.
type gcStats struct{ allocMB, cycles, cpuS float64 }

func readGC() gcStats {
	v := readRuntime(mAllocs, mGCCycles, mGCCPU)
	return gcStats{allocMB: v[0] / bytesPerMB, cycles: v[1], cpuS: v[2]}
}

// put stores the per-round GC work between two readings.
func (a gcStats) put(r *report, b gcStats, rounds float64) {
	r.metrics["gc.alloc_mb"] = (b.allocMB - a.allocMB) / rounds
	r.metrics["gc.cycles"] = (b.cycles - a.cycles) / rounds
	r.metrics["gc.cpu_s"] = (b.cpuS - a.cpuS) / rounds
}

// runPhases runs a workload's timed phase: one untraced phase for the
// whole budget or, in the traced run, an untraced phase for half of it
// and then a profiled phase for the other half. It returns the CPU
// seconds per layer and the GC counters around the profiled phase.
func runPhases(e env, phase func(traced bool, budget time.Duration) error) (hostS map[string]float64, gcA, gcB gcStats, err error) {
	budget := e.budget
	if e.traced {
		budget /= 2
	}
	if err = phase(false, budget); err != nil || !e.traced {
		return
	}
	gcA = readGC()
	prof, err := startProfile()
	if err != nil {
		return
	}
	err = phase(true, budget)
	hostS, perr := prof.Stop()
	gcB = readGC()
	if err == nil {
		err = perr
	}
	return
}

// cpuTime returns the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
