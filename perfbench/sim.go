package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"affinityalloc/internal/core"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// cell is one simulation: a workload under one execution mode on a
// machine built fresh with sys.New, as the harness runs its cells.
type cell struct {
	label  string
	cfg    sys.Config
	w      workloads.Workload
	mode   sys.Mode
	record bool // attach a trace recorder and keep the scenario
}

// cellRun is one cell's outcome and the host time of the two public
// calls it makes.
type cellRun struct {
	label    string
	res      workloads.Result
	newT     time.Duration // sys.New
	runT     time.Duration // Workload.Run
	places   placeCount
	scenario *trace.Scenario
}

func (c cellRun) wall() time.Duration { return c.newT + c.runT }

func (c cell) run(hp *heapProbe) (cellRun, error) {
	out := cellRun{label: c.label}
	start := time.Now()
	s, err := sys.New(c.cfg)
	out.newT = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.label, err)
	}
	var rec *trace.Recorder
	var obs placeObserver
	if c.record {
		rec = trace.NewRecorder(c.label)
		rec.Begin(c.cfg, c.mode)
		rec.Attach(s)
	} else {
		s.RT.SetObserver(&obs)
	}
	start = time.Now()
	out.res, err = c.w.Run(s, c.mode)
	out.runT = time.Since(start)
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.label, err)
	}
	out.places = obs.placeCount
	hp.mark(s)
	if c.record {
		rec.Finish(uint64(out.res.Metrics.Cycles))
		out.scenario = rec.Scenario()
		out.places = countPlacements(trace.RecordedPlacements(out.scenario))
	}
	return out, nil
}

// placeCount counts an allocator's outermost calls: successful
// placements, and the Aff-Alloc requests (affine and near) attempted and
// placed in an interleave pool.
type placeCount struct{ placed, affTried, affPooled int64 }

func (p *placeCount) add(o placeCount) {
	p.placed += o.placed
	p.affTried += o.affTried
	p.affPooled += o.affPooled
}

func (p placeCount) affinityRatio() float64 {
	if p.affTried == 0 {
		return 0
	}
	return float64(p.affPooled) / float64(p.affTried)
}

// placeObserver counts placements through the runtime's observer hook.
type placeObserver struct{ placeCount }

func (o *placeObserver) ObserveOpenPool(int) {}

func (o *placeObserver) ObserveAffine(_ core.AffineSpec, _ int, info *core.ArrayInfo, err error) {
	o.affTried++
	if err == nil {
		o.placed++
		if info.Interleave > 0 {
			o.affPooled++
		}
	}
}

func (o *placeObserver) ObserveNear(_ int64, _ []memsim.Addr, _ int, _ memsim.Addr, _ int, err error) {
	o.affTried++
	if err == nil {
		o.placed++
		o.affPooled++
	}
}

func (o *placeObserver) ObserveBase(_ int64, _ memsim.Addr, err error) {
	if err == nil {
		o.placed++
	}
}

func (o *placeObserver) ObserveFree(memsim.Addr, error) {}

// countPlacements counts recorded or replayed trace placements like
// placeObserver counts live ones.
func countPlacements(ps []trace.Placement) placeCount {
	var c placeCount
	for _, p := range ps {
		ok := p.Err == ""
		switch p.Op {
		case trace.OpAffine, trace.OpAffineBank:
			c.affTried++
			if ok && p.Interleave > 0 {
				c.affPooled++
			}
		case trace.OpNear, trace.OpNearBank:
			c.affTried++
			if ok {
				c.affPooled++
			}
		}
		if ok {
			c.placed++
		}
	}
	return c
}

// workCounts maps per-layer work counts to the telemetry scalars every
// cell publishes; a round's count is the sum over its cells.
var workCounts = []struct {
	metric string
	keys   []string
}{
	{"noc.flit_hops", []string{"noc_flit_hops"}},
	{"noc.messages", []string{"noc_control_messages", "noc_data_messages", "noc_offload_messages"}},
	{"cache.l3_accesses", []string{"l3_bank_accesses_total"}},
	{"cache.l3_misses", []string{"l3_bank_misses_total"}},
	{"cache.dram_accesses", []string{"dram_chan_reads_total", "dram_chan_writes_total"}},
	{"cache.l3_busy_cycles", []string{"l3_bank_busy_cycles_total"}},
	{"cache.dram_queue_cycles", []string{"dram_chan_queue_cycles_total"}},
	{"stream.elements", []string{"se_elements_computed"}},
	{"stream.remote_ops", []string{"se_remote_ops"}},
	{"stream.migrations", []string{"se_migrations"}},
	{"cpu.active_cycles", []string{"core_active_cycles_total"}},
	{"realloc.migrations", []string{"realloc_migrations"}},
}

// checkConservation checks one cell's counters: L3 accesses are hits
// plus misses, flit-hops are the sum of the per-class flit-hops and, on a
// machine without lossy links (whose retransmits add link flits), equal
// the flits carried by links.
func checkConservation(r *report, label string, snap *telemetry.Snapshot, lossless bool) {
	acc, hit, miss := snap.Scalar("l3_bank_accesses_total"), snap.Scalar("l3_bank_hits_total"), snap.Scalar("l3_bank_misses_total")
	r.check(acc == hit+miss, "l3-conservation", "%s: %d L3 accesses != %d hits + %d misses", label, acc, hit, miss)
	hops := snap.Scalar("noc_flit_hops")
	cls := snap.Scalar("noc_control_flit_hops") + snap.Scalar("noc_data_flit_hops") + snap.Scalar("noc_offload_flit_hops")
	r.check(hops == cls, "flit-hop-conservation", "%s: %d flit-hops != %d summed over classes", label, hops, cls)
	if lossless {
		links := snap.Scalar("noc_link_flits_total")
		r.check(hops == links, "link-flit-conservation", "%s: %d flit-hops != %d link flits", label, hops, links)
	}
}

// simRound is what one pass over a simulation workload's cells produced.
type simRound struct {
	cells   []cellRun
	places  placeCount
	replays []time.Duration // each trace.Replay, which runs one machine too
	encT    time.Duration   // trace.Encode
	decT    time.Duration   // trace.Decode
	ops     int64           // cells plus replays
	// replaySig lists every replay's simulated cycles, to compare rounds.
	replaySig string
	// norm is every cell's and replay's time at the reference host
	// speed, in seconds (calib.go).
	norm []float64
}

// simStats accumulates a simulation workload's rounds and turns them
// into metrics.
type simStats struct {
	plain, traced []time.Duration // round walls
	rounds        []simRound      // plain rounds, then traced ones
	first         *simRound
	calibMs       []float64 // each plain round's median calibration
}

// add keeps a finished round and checks that it repeated the first one
// exactly: the simulator is deterministic, so any difference is a bug.
func (s *simStats) add(r *report, rd simRound) {
	if s.first == nil {
		f := rd
		s.first = &f
	} else {
		for i, c := range rd.cells {
			f := s.first.cells[i].res
			same := c.res.Checksum == f.Checksum && c.res.Metrics.Cycles == f.Metrics.Cycles &&
				c.res.Metrics.FlitHops == f.Metrics.FlitHops
			r.check(same, "rounds-repeat", "%s differs between rounds", c.label)
		}
		r.check(rd.replaySig == s.first.replaySig, "rounds-repeat", "replayed cycles differ between rounds")
	}
	rd.cells = append([]cellRun(nil), rd.cells...)
	for i := range rd.cells {
		rd.cells[i].res.Metrics.Detail = nil // keep timings, not snapshots
		rd.cells[i].scenario = nil
	}
	s.rounds = append(s.rounds, rd)
}

// endToEnd sets the untraced metrics from the plain rounds, with every
// cell and replay timed at the reference host speed.
func (s *simStats) endToEnd(r *report) {
	plain := s.rounds[:len(s.plain)]
	var walls, rates []float64
	for _, rd := range plain {
		w := sum(rd.norm)
		walls = append(walls, w)
		rates = append(rates, float64(rd.places.placed)/w)
	}
	r.metrics["wall_s"] = median(walls)
	r.metrics["place_per_s"] = median(rates)
	// Every cell and replay is the life of one simulated machine; each
	// contributes its median over the rounds.
	var perCell []float64
	for i := range plain[0].norm {
		var ws []float64
		for _, rd := range plain {
			ws = append(ws, rd.norm[i]*1000)
		}
		perCell = append(perCell, median(ws))
	}
	r.metrics["cell_p50_ms"] = median(perCell)
}

// perLayer sets the traced metrics: work counts of the first round,
// spans and host time per traced round, and the derived ratios.
func (s *simStats) perLayer(r *report, hostS map[string]float64) {
	n := float64(len(s.traced))
	for l, v := range hostS {
		r.metrics[l+".host_s"] = v / n
	}
	var kcyc float64
	for _, wc := range workCounts {
		var sum uint64
		for _, c := range s.first.cells {
			for _, k := range wc.keys {
				sum += c.res.Metrics.Detail.Scalar(k)
			}
		}
		r.metrics[wc.metric] = float64(sum)
	}
	for _, c := range s.first.cells {
		kcyc += float64(c.res.Metrics.Cycles) / 1000
	}
	r.metrics["model.sim_kcycles"] = kcyc
	r.metrics["harness.cells"] = float64(len(s.first.cells))
	r.metrics["core.affinity_ratio"] = s.first.places.affinityRatio()

	traced := s.rounds[len(s.plain):]
	var newMs, runS, cellS, replayS, encMs, decMs []float64
	for _, rd := range traced {
		var run, wall time.Duration
		for _, c := range rd.cells {
			newMs = append(newMs, ms(c.newT))
			run += c.runT
			wall += c.wall()
		}
		runS = append(runS, run.Seconds())
		cellS = append(cellS, wall.Seconds())
		var replay time.Duration
		for _, d := range rd.replays {
			replay += d
		}
		replayS = append(replayS, replay.Seconds())
		encMs = append(encMs, ms(rd.encT))
		decMs = append(decMs, ms(rd.decT))
	}
	r.metrics["sys.new_ms"] = median(newMs)
	r.metrics["workload.run_s"] = median(runS)
	r.metrics["trace.replay_s"] = median(replayS)
	r.metrics["trace.encode_ms"] = median(encMs)
	r.metrics["trace.decode_ms"] = median(decMs)
	r.metrics["harness.sim_mcycles_per_s"] = kcyc / 1000 / median(cellS)
	if hops := r.metrics["noc.flit_hops"]; hops > 0 {
		r.metrics["noc.ns_per_flit_hop"] = r.metrics["noc.host_s"] * 1e9 / hops
	}
	if acc := r.metrics["cache.l3_accesses"]; acc > 0 {
		r.metrics["cache.ns_per_l3_access"] = r.metrics["cache.host_s"] * 1e9 / acc
	}
	var plainS, tracedS []float64
	for _, rd := range s.rounds[:len(s.plain)] {
		plainS = append(plainS, sum(rd.norm))
	}
	for _, rd := range traced {
		tracedS = append(tracedS, sum(rd.norm))
	}
	r.metrics["bench.trace_overhead_s"] = median(tracedS) - median(plainS)
	r.metrics["bench.calib_ms"] = median(s.calibMs)
}

// heapProbe, when a round is given one, forces a GC cycle at the end of
// every cell and replay, while its machine is still reachable, and keeps
// the largest live heap it sees. Unlike sampling, which sees the live heap
// only at whatever moment the collector happens to finish, this does not
// depend on GC timing.
type heapProbe struct{ peak float64 }

func (h *heapProbe) mark(keep any) {
	if h == nil {
		return
	}
	runtime.GC()
	h.peak = max(h.peak, readRuntime(mHeapLive)[0])
	runtime.KeepAlive(keep)
}

// runSim runs a simulation workload's timed phase, one round at a time,
// and sets its metrics. round runs every cell and replay once, calling
// clk.calibrate before each and clk.unit with its measured time. An
// untraced run then runs one more, untimed round under a heapProbe for
// heap_peak_mb.
func runSim(e env, rep *report, round func(hp *heapProbe, clk *hostClock) (simRound, error)) (*simStats, error) {
	var st simStats
	hostS, gcA, gcB, err := runPhases(e, func(traced bool, budget time.Duration) error {
		walls, err := runRounds(budget, func() error {
			start, cpu := time.Now(), cpuTime()
			clk := newHostClock(e.cal, true)
			rd, err := round(nil, clk)
			if err != nil {
				return err
			}
			clk.calibrate()
			rd.norm = clk.normalized()
			if !traced {
				st.calibMs = append(st.calibMs, clk.calibMedian())
			}
			fmt.Printf("round %d (traced %v): %d cells, wall %.3f s, cpu %.3f s, calibration p50 %.2f ms, at reference speed %.3f s\n",
				len(st.rounds)+1, traced, len(rd.cells), time.Since(start).Seconds(), (cpuTime() - cpu).Seconds(), clk.calibMedian(), sum(rd.norm))
			st.add(rep, rd)
			rep.attempted += rd.ops
			return nil
		})
		if traced {
			st.traced = walls
		} else {
			st.plain = walls
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		st.perLayer(rep, hostS)
		gcA.put(rep, gcB, float64(len(st.traced)))
		return &st, nil
	}
	st.endToEnd(rep)
	hp := &heapProbe{}
	rd, err := round(hp, nil)
	if err != nil {
		return nil, err
	}
	st.add(rep, rd)
	rep.attempted += rd.ops
	rep.metrics["heap_peak_mb"] = hp.peak / bytesPerMB
	return &st, nil
}

// checkRerun runs one cell again in the same process and checks that it
// returns identical metrics and checksum.
func checkRerun(r *report, c cell, first cellRun) error {
	again, err := c.run(nil)
	if err != nil {
		return err
	}
	same := again.res.Checksum == first.res.Checksum && reflect.DeepEqual(again.res.Metrics, first.res.Metrics)
	r.check(same, "rerun-identical", "%s returned different metrics when run twice", c.label)
	return nil
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
