package affinityalloc

// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation (regenerating the artifact end to end at tiny
// scale; run `cmd/afftables -scale default|paper` for the full-size
// numbers), plus the ablation benchmarks DESIGN.md §4 calls out.

import (
	"fmt"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/graph"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/topo"
	"affinityalloc/internal/workloads"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opt := harness.Options{Scale: harness.Tiny, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := e.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// Figures and tables (§7).

func BenchmarkFig4VecAddLayoutSweep(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig6IrregularLayoutOracle(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkTable2SystemParameters(b *testing.B)    { benchExperiment(b, "t2") }
func BenchmarkTable3WorkloadParameters(b *testing.B)  { benchExperiment(b, "t3") }
func BenchmarkFig12Overall(b *testing.B)              { benchExperiment(b, "fig12") }
func BenchmarkFig13PolicySensitivity(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14AtomicDistribution(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkFig15AffineLargeInputs(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16LinkedCSRLargeGraphs(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17BFSCharacteristics(b *testing.B)   { benchExperiment(b, "fig17") }
func BenchmarkFig18BFSTimeline(b *testing.B)          { benchExperiment(b, "fig18") }
func BenchmarkFig19DegreeSweep(b *testing.B)          { benchExperiment(b, "fig19") }
func BenchmarkTable4RealGraphStandins(b *testing.B)   { benchExperiment(b, "t4") }
func BenchmarkFig20RealGraphs(b *testing.B)           { benchExperiment(b, "fig20") }

// Per-workload benchmarks: one simulated run per iteration under each
// configuration, reporting simulated cycles as a custom metric.

func benchWorkload(b *testing.B, w workloads.Workload, mode sys.Mode) {
	benchWorkloadCfg(b, sys.DefaultConfig(), w, mode)
}

func benchWorkloadCfg(b *testing.B, cfg sys.Config, w workloads.Workload, mode sys.Mode) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := workloads.Run(cfg, w, mode)
		if err != nil {
			b.Fatal(err)
		}
		cycles = uint64(res.Metrics.Cycles)
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

func BenchmarkWorkloads(b *testing.B) {
	tinyGraph := graph.Kronecker(11, 8, 42)
	tinyGT := tinyGraph.Transpose()
	weighted := graph.Kronecker(11, 8, 42)
	weighted.AddUniformWeights(1, 255, 42)
	ws := []workloads.Workload{
		workloads.VecAdd{N: 1 << 16, ForceDelta: -1},
		workloads.Pathfinder{Cols: 32 * 1024, Steps: 2},
		workloads.NewHotspot(64, 1024, 2),
		workloads.NewSrad(32, 1024, 1),
		workloads.Hotspot3D{Rows: 32, Cols: 256, Layers: 8, Iters: 2},
		workloads.PageRank{G: tinyGraph, GT: tinyGT, Iters: 2, Best: true},
		workloads.BFS{G: tinyGraph, GT: tinyGT, Src: -1},
		workloads.SSSP{G: weighted, Src: -1},
		workloads.LinkList{Lists: 120, Nodes: 128, Queries: 1},
		workloads.HashJoin{BuildRows: 8 << 10, ProbeRows: 16 << 10, Buckets: 2 << 10, HitRate: 1.0 / 8},
		workloads.BinTree{Keys: 8 << 10, Lookups: 16 << 10},
	}
	for _, w := range ws {
		for _, mode := range sys.Modes {
			b.Run(fmt.Sprintf("%s/%v", w.Name(), mode), func(b *testing.B) {
				benchWorkload(b, w, mode)
			})
		}
	}
}

// Ablations (DESIGN.md §4).

// BenchmarkAblationHybridH sweeps the Eq.-4 load-balance weight beyond
// the paper's H values.
func BenchmarkAblationHybridH(b *testing.B) {
	g := graph.Kronecker(11, 8, 42)
	gt := g.Transpose()
	w := workloads.BFS{G: g, GT: gt, Policy: graph.PushOnly{}, Src: -1}
	for _, h := range []float64{0, 1, 3, 5, 7, 9} {
		b.Run(fmt.Sprintf("H=%g", h), func(b *testing.B) {
			cfg := sys.DefaultConfig()
			if h == 0 {
				cfg.Policy = core.PolicyConfig{Policy: core.MinHop}
			} else {
				cfg.Policy = core.PolicyConfig{Policy: core.Hybrid, H: h}
			}
			benchWorkloadCfg(b, cfg, w, sys.AffAlloc)
		})
	}
}

// BenchmarkAblationLinkedCSRNodeSize sweeps the linked-CSR node
// footprint: bigger nodes amortize chasing but coarsen placement.
func BenchmarkAblationLinkedCSRNodeSize(b *testing.B) {
	g := graph.Kronecker(11, 8, 42)
	gt := g.Transpose()
	for _, nodeBytes := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("node=%dB", nodeBytes), func(b *testing.B) {
			w := workloads.BFS{G: g, GT: gt, Policy: graph.PushOnly{}, Src: -1, LinkedNodeBytes: nodeBytes}
			benchWorkload(b, w, sys.AffAlloc)
		})
	}
}

// BenchmarkAblationSpatialQueue compares the spatially distributed work
// queue (Fig 9) against a conventional global queue under Aff-Alloc.
func BenchmarkAblationSpatialQueue(b *testing.B) {
	g := graph.Kronecker(11, 8, 42)
	gt := g.Transpose()
	for _, global := range []bool{false, true} {
		name := "spatial"
		if global {
			name = "global"
		}
		b.Run(name, func(b *testing.B) {
			w := workloads.BFS{G: g, GT: gt, Policy: graph.PushOnly{}, Src: -1, ForceGlobalQueue: global}
			benchWorkload(b, w, sys.AffAlloc)
		})
	}
}

// BenchmarkAblationBankNumbering compares the paper's 1D row-major bank
// numbering against the quadrant (Z-order) alternative of §4.1.
func BenchmarkAblationBankNumbering(b *testing.B) {
	g := graph.Kronecker(11, 8, 42)
	gt := g.Transpose()
	w := workloads.BFS{G: g, GT: gt, Src: -1}
	for _, numbering := range []struct {
		name string
		n    topo.Numbering
	}{{"row-major", topo.RowMajor}, {"quadrant", topo.Quadrant}} {
		b.Run(numbering.name, func(b *testing.B) {
			cfg := sys.DefaultConfig()
			cfg.Numbering = numbering.n
			benchWorkloadCfg(b, cfg, w, sys.AffAlloc)
		})
	}
}

// BenchmarkAblationInterleaveFallback measures the cost of affine
// requests that cannot be aligned exactly, exercising the padding and
// fallback paths of §4.2.
func BenchmarkAblationInterleaveFallback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sys.MustNew(sys.DefaultConfig())
		a, err := s.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: 1 << 14})
		if err != nil {
			b.Fatal(err)
		}
		// Element-size ratio 3 with p=7: unalignable, must pad or fall
		// back without failing.
		if _, err := s.RT.AllocAffine(core.AffineSpec{ElemSize: 12, NumElem: 1 << 10, AlignTo: a.Base, AlignP: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionDynamicGraph runs the §8 evolving-graph extension
// under each configuration.
func BenchmarkExtensionDynamicGraph(b *testing.B) {
	w := workloads.DynGraph{G: graph.Kronecker(10, 8, 42), Batches: 2, UpdatesPerBatch: 1024}
	for _, mode := range sys.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			benchWorkload(b, w, mode)
		})
	}
}

// BenchmarkAblationNPOTInterleave measures the §4.1 future-work
// extension: exact non-power-of-two alignment versus element padding,
// reporting the padding overhead each approach incurs.
func BenchmarkAblationNPOTInterleave(b *testing.B) {
	for _, npot := range []bool{false, true} {
		name := "padded"
		if npot {
			name = "npot"
		}
		b.Run(name, func(b *testing.B) {
			var padBytes uint64
			for i := 0; i < b.N; i++ {
				cfg := sys.DefaultConfig()
				cfg.Mem.AllowNPOT = npot
				s := sys.MustNew(cfg)
				a, err := s.RT.AllocAffine(core.AffineSpec{ElemSize: 4, NumElem: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.RT.AllocAffine(core.AffineSpec{ElemSize: 12, NumElem: 1 << 14, AlignTo: a.Base}); err != nil {
					b.Fatal(err)
				}
				padBytes = s.RT.Stats.PadBytes
			}
			b.ReportMetric(float64(padBytes), "padbytes")
		})
	}
}
