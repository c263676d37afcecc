package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"affinityalloc/internal/graph"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/workloads"
)

// runSimTable3 runs fig12's 30 cells, the ten Table-3 workloads under
// In-Core, Near-L3 and Aff-Alloc at default scale, one at a time. A round
// is one pass over all 30 cells.
func runSimTable3(e env) (*report, error) {
	rep := newReport()
	opt := harness.Options{Scale: harness.Default, Seed: e.seed}
	ws, setupS, err := timedSetup(e.cal, setupReps, func() ([]workloads.Workload, error) {
		return harness.AllWorkloads(opt), nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setupS

	cfg := sys.DefaultConfig()
	cfg.Seed = e.seed
	var cells []cell
	for _, w := range ws {
		for _, m := range sys.Modes {
			cells = append(cells, cell{label: w.Name() + "/" + m.String(), cfg: cfg, w: w, mode: m})
		}
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
			checkConservation(rep, c.label, cr.res.Metrics.Detail, true)
			rd.cells = append(rd.cells, cr)
			rd.places.add(cr.places)
		}
		for wi := range ws {
			checkSameChecksum(rep, rd.cells[wi*len(sys.Modes):(wi+1)*len(sys.Modes)])
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}

	// Aff-Alloc against Near-L3 on every workload, and the headline
	// geomean speedup.
	first := st.first.cells
	var speedups []float64
	for wi, w := range ws {
		near := first[wi*len(sys.Modes)+modeIndex(sys.NearL3)].res.Metrics
		aff := first[wi*len(sys.Modes)+modeIndex(sys.AffAlloc)].res.Metrics
		rep.check(aff.Cycles < near.Cycles, "affalloc-fewer-cycles", "%s: Aff-Alloc %d cycles >= Near-L3 %d", w.Name(), aff.Cycles, near.Cycles)
		rep.check(aff.FlitHops < near.FlitHops, "affalloc-fewer-flit-hops", "%s: Aff-Alloc %d flit-hops >= Near-L3 %d", w.Name(), aff.FlitHops, near.FlitHops)
		speedups = append(speedups, float64(near.Cycles)/float64(aff.Cycles))
		if want, ok := referenceChecksum(w); ok {
			got := first[wi*len(sys.Modes)].res.Checksum
			rep.check(got == want, "reference-checksum", "%s: checksum %x, reference computation gives %x", w.Name(), got, want)
		}
	}
	if e.traced {
		rep.metrics["model.affalloc_speedup"] = geomean(speedups)
	}
	return rep, checkRerun(rep, cells[0], first[0])
}

func modeIndex(m sys.Mode) int {
	for i, x := range sys.Modes {
		if x == m {
			return i
		}
	}
	return -1
}

// checkSameChecksum checks that every configuration of one workload
// computed the same result.
func checkSameChecksum(r *report, runs []cellRun) {
	for _, c := range runs[1:] {
		r.check(c.res.Checksum == runs[0].res.Checksum, "same-checksum-across-modes",
			"%s checksum %x != %s checksum %x", c.label, c.res.Checksum, runs[0].label, runs[0].res.Checksum)
	}
}

// referenceChecksum computes bfs, sssp and pr results with the graph
// package's reference algorithms on the workload's own generated graph,
// hashed the way the workloads hash their results.
func referenceChecksum(w workloads.Workload) (uint64, bool) {
	h := newResultHash()
	switch w := w.(type) {
	case workloads.BFS:
		for _, l := range graph.BFS(w.G, nil, source(w.G, w.Src), graph.PushOnly{}).Level {
			h.add(uint64(uint32(l)))
		}
	case workloads.SSSP:
		for _, d := range graph.SSSP(w.G, source(w.G, w.Src)).Dist {
			h.add(uint64(d))
		}
	case workloads.PageRank:
		// The workload hashes every 97th score, rounded to float32.
		scores := graph.PageRank(w.G, w.Iters, 0.85)
		for i := 0; i < len(scores); i += 97 {
			h.add(uint64(math.Float32bits(float32(scores[i]))))
		}
	default:
		return 0, false
	}
	return uint64(h), true
}

// source resolves a workload's start vertex (-1: the highest-degree one).
func source(g *graph.Graph, src int32) int32 {
	if src < 0 {
		return g.MaxDegreeVertex()
	}
	return src
}

// resultHash is the workloads' result hash: h = 31·h + FNV-1a(v) over
// each value's eight little-endian bytes.
type resultHash uint64

func newResultHash() resultHash { return 1469598103934665603 }

func (h *resultHash) add(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f := fnv.New64a()
	f.Write(b[:])
	*h = *h*31 + resultHash(f.Sum64())
}
