package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// scenarioInputs are sim-scenarios' generated inputs, sized as the
// harness sizes afftables' -faults-sweep, -realloc-sweep and -colocation
// tables at default scale.
type scenarioInputs struct {
	bfs     workloads.BFS
	skew    workloads.Skew
	tenants []workloads.Workload // colocation tenants, recorded solo
	noise   *trace.Scenario      // the synthetic noisy neighbour
}

func newScenarioInputs(seed int64) *scenarioInputs {
	g := graph.Kronecker(14, 12, 42+seed)
	skew := workloads.DefaultSkew()
	skew.Chunks, skew.OpsPerPhase = 16, 18000
	return &scenarioInputs{
		bfs:  workloads.BFS{G: g, GT: g.Transpose(), Src: -1},
		skew: skew,
		tenants: []workloads.Workload{
			workloads.VecAdd{N: 1 << 15, ForceDelta: -1},
			workloads.Pathfinder{Cols: 64 * 1024, Steps: 3},
			workloads.DefaultLinkList(),
		},
		noise: trace.NoisyNeighbor(trace.NoiseSpec{Seed: seed, Bursts: 4}),
	}
}

// namedSpec is one fault level of a sweep.
type namedSpec struct {
	name string
	spec faults.Spec
}

// colocation axes, as in the harness's colocation table.
var (
	colocationPolicies = []string{"rnd", "minhop", "hybrid5"}
	colocationPairs    = [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {2, 3}}
)

// Mid-run bank kill and reconciler cadence of the re-allocation sweep at
// default scale.
const (
	killBank  = 27
	killAt    = 12000
	reallocEp = 6000
)

// runSimScenarios runs the beyond-paper scenarios at default scale: the
// degraded-substrate sweep (BFS under every mode across dead banks and
// links), the static-vs-dynamic re-allocation sweep (skew and BFS, clean
// and with a mid-run bank kill), and the colocation table (three tenants
// recorded solo, composed in pairs and with a noisy neighbour, replayed
// under three policies), plus a binary encode → decode → replay round
// trip of the recorded tenants. A round is one pass over all of it.
func runSimScenarios(e env) (*report, error) {
	rep := newReport()
	in, setupS, err := timedSetup(e.cal, setupReps, func() (*scenarioInputs, error) { return newScenarioInputs(e.seed), nil })
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS

	base := sys.DefaultConfig()
	base.Seed = e.seed
	var cells []cell

	// Degraded-substrate sweep.
	levels := []namedSpec{{"clean", faults.Spec{}}}
	for _, n := range []int{1, 2, 4} {
		levels = append(levels, namedSpec{fmt.Sprintf("dead-banks=%d", n), faults.Spec{Seed: e.seed, NDeadBanks: n}})
	}
	for _, n := range []int{2, 4, 8} {
		levels = append(levels, namedSpec{fmt.Sprintf("dead-links=%d", n), faults.Spec{Seed: e.seed, NDeadLinks: n}})
	}
	levels = append(levels, namedSpec{"dead-banks=2,dead-links=4", faults.Spec{Seed: e.seed, NDeadBanks: 2, NDeadLinks: 4}})
	for _, lv := range levels {
		for _, m := range sys.Modes {
			cfg := base
			cfg.Faults = lv.spec
			cells = append(cells, cell{label: "bfs/" + lv.name + "/" + m.String(), cfg: cfg, w: in.bfs, mode: m})
		}
	}
	nSweep := len(cells)

	// Static-vs-dynamic re-allocation sweep: per workload, clean static,
	// clean dynamic, kill static, kill dynamic.
	kill := faults.Spec{Kills: []faults.BankKill{{Bank: killBank, At: killAt}}}
	dynamic := realloc.Config{Epoch: reallocEp}.WithDefaults()
	for _, w := range []workloads.Workload{in.skew, in.bfs} {
		for _, sc := range []namedSpec{{"clean", faults.Spec{}}, {fmt.Sprintf("kill-bank=%d@%d", killBank, killAt), kill}} {
			for _, v := range []struct {
				name string
				rc   realloc.Config
			}{{"static", realloc.Config{}}, {"dynamic", dynamic}} {
				cfg := base
				cfg.Faults, cfg.Realloc = sc.spec, v.rc
				cells = append(cells, cell{label: w.Name() + "/" + sc.name + "/" + v.name, cfg: cfg, w: w, mode: sys.AffAlloc})
			}
		}
	}
	nRealloc := len(cells) - nSweep

	// Colocation tenants, recorded solo under Aff-Alloc.
	for _, w := range in.tenants {
		cells = append(cells, cell{label: w.Name(), cfg: base, w: w, mode: sys.AffAlloc, record: true})
	}

	st, err := runSim(e, rep, func(hp *heapProbe, clk *hostClock) (simRound, error) {
		rd := simRound{ops: int64(len(cells))}
		for _, c := range cells {
			clk.calibrate()
			cr, err := c.run(hp)
			if err != nil {
				return rd, err
			}
			clk.unit(cr.wall())
			checkConservation(rep, c.label, cr.res.Metrics.Detail, len(c.cfg.Faults.Links) == 0)
			rd.cells = append(rd.cells, cr)
			rd.places.add(cr.places)
		}
		var scs []*trace.Scenario
		for _, c := range rd.cells[nSweep+nRealloc:] {
			scs = append(scs, c.scenario)
		}
		err := replayRound(rep, e.seed, in, scs, &rd, hp, clk)
		return rd, err
	})
	if err != nil {
		return nil, err
	}

	first := st.first.cells
	// Faults and migration change timing only: every BFS cell computes
	// the reference result, and dynamic runs the skew computation of
	// static.
	if want, ok := referenceChecksum(in.bfs); ok {
		for _, c := range first[:nSweep+nRealloc] {
			if strings.HasPrefix(c.label, "bfs/") {
				rep.check(c.res.Checksum == want, "reference-checksum", "%s: checksum %x, reference computation gives %x", c.label, c.res.Checksum, want)
			}
		}
	}
	var speedups []float64
	for li := range levels {
		near := first[li*len(sys.Modes)+modeIndex(sys.NearL3)].res.Metrics.Cycles
		aff := first[li*len(sys.Modes)+modeIndex(sys.AffAlloc)].res.Metrics.Cycles
		speedups = append(speedups, float64(near)/float64(aff))
	}
	for i := nSweep; i < nSweep+nRealloc; i += 4 {
		static, dyn := first[i+2], first[i+3] // the bank-kill pair
		ratio := float64(dyn.res.Metrics.Cycles) / float64(static.res.Metrics.Cycles)
		fmt.Printf("%s: dynamic/static cycles %.3f\n", dyn.label, ratio)
		// Dynamic re-allocation must pay on the hotspot workload. On BFS
		// it is slower than static for some graph seeds (see README.md,
		// "Faults the benchmark counts or found"), so BFS is reported,
		// not checked.
		if strings.HasPrefix(dyn.label, in.skew.Name()+"/") {
			rep.check(ratio <= 1, "dynamic-not-slower-on-kill", "%s: %d cycles > static %d",
				dyn.label, dyn.res.Metrics.Cycles, static.res.Metrics.Cycles)
		}
		for j := i; j < i+4; j++ {
			rep.check(first[j].res.Checksum == first[i].res.Checksum, "realloc-timing-only",
				"%s checksum %x != %s %x", first[j].label, first[j].res.Checksum, first[i].label, first[i].res.Checksum)
		}
	}
	if e.traced {
		rep.metrics["model.affalloc_speedup"] = geomean(speedups)
	}
	return rep, checkRerun(rep, cells[nSweep+1], first[nSweep+1])
}

// replayRound composes the recorded tenants into the colocation
// scenarios and replays them, then round-trips the recordings through
// the binary codec and checks each replay reproduces its recorded
// placements.
func replayRound(rep *report, seed int64, in *scenarioInputs, scs []*trace.Scenario, rd *simRound, hp *heapProbe, clk *hostClock) error {
	tenants := append(append([]*trace.Scenario(nil), scs...), in.noise)
	runs := append([]*trace.Scenario(nil), tenants...)
	for pi, p := range colocationPairs {
		c, err := trace.Compose([]*trace.Scenario{tenants[p[0]], tenants[p[1]]},
			trace.ComposeOptions{Seed: seed*1000003 + int64(pi)})
		if err != nil {
			return fmt.Errorf("compose pair %d: %w", pi, err)
		}
		runs = append(runs, c)
	}
	var sig strings.Builder
	replay := func(sc *trace.Scenario, opt trace.Options) (*trace.Result, error) {
		clk.calibrate()
		start := time.Now()
		res, err := trace.Replay(sc, opt)
		rd.replays = append(rd.replays, time.Since(start))
		clk.unit(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", sc.Label, err)
		}
		rd.ops++
		hp.mark(res)
		rd.places.add(countPlacements(res.Placements))
		fmt.Fprintf(&sig, "%s/%s:%d;", sc.Label, opt.Policy, res.Cycles)
		return res, nil
	}
	for _, sc := range runs {
		for _, p := range colocationPolicies {
			res, err := replay(sc, trace.Options{Policy: p})
			if err != nil {
				return err
			}
			rep.check(len(res.Tenants) == sc.NumTenants(), "colocation-tenants",
				"%s under %s replayed %d of %d tenants", sc.Label, p, len(res.Tenants), sc.NumTenants())
		}
	}

	start := time.Now()
	data := trace.Encode(&trace.Trace{Scenarios: scs})
	rd.encT = time.Since(start)
	start = time.Now()
	dec, err := trace.Decode(data)
	rd.decT = time.Since(start)
	if err != nil {
		return fmt.Errorf("decode recorded trace: %w", err)
	}
	rep.check(len(dec.Scenarios) == len(scs), "trace-round-trip", "decoded %d of %d scenarios", len(dec.Scenarios), len(scs))
	for i, sc := range dec.Scenarios {
		res, err := replay(sc, trace.Options{})
		if err != nil {
			return err
		}
		rep.check(bytes.Equal(res.PlacementDump(), trace.RecordedDump(scs[i])), "replay-matches-recording",
			"%s: replayed placements %s != recorded %s", sc.Label,
			trace.Digest(res.PlacementDump()), trace.Digest(trace.RecordedDump(scs[i])))
	}
	rd.replaySig = sig.String()
	return nil
}
