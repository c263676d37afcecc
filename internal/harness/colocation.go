package harness

import (
	"fmt"

	"affinityalloc/internal/core"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// colocationPolicies is the policy axis of the interference table.
var colocationPolicies = []string{"rnd", "minhop", "hybrid5"}

// colocationWorkloads picks three cheap, structurally diverse tenants:
// an affine stencil, a streamed vector kernel, and a pointer chaser.
func colocationWorkloads(opt Options) []workloads.Workload {
	switch opt.Scale {
	case Tiny:
		return []workloads.Workload{
			workloads.VecAdd{N: 1 << 12, ForceDelta: -1},
			workloads.Pathfinder{Cols: 8 * 1024, Steps: 2},
			workloads.LinkList{Lists: 48, Nodes: 64, Queries: 1},
		}
	case Paper:
		return []workloads.Workload{
			workloads.VecAdd{N: 1 << 18, ForceDelta: -1},
			workloads.Pathfinder{Cols: 512 * 1024, Steps: 4},
			workloads.PaperLinkList(),
		}
	default:
		return []workloads.Workload{
			workloads.VecAdd{N: 1 << 15, ForceDelta: -1},
			workloads.Pathfinder{Cols: 64 * 1024, Steps: 3},
			workloads.DefaultLinkList(),
		}
	}
}

// noiseSpec sizes the synthetic noisy-neighbor tenant per scale.
func noiseSpec(opt Options) trace.NoiseSpec {
	sp := trace.NoiseSpec{Seed: opt.Seed, Bursts: 4}
	if opt.Scale == Tiny {
		sp.Bytes = 256 << 10
	}
	return sp
}

// Colocation builds the CODA-style interference table: record each
// tenant workload solo (Aff-Alloc), compose workload pairs into
// multi-tenant scenarios with a deterministic seeded interleaving, then
// replay solo and colocated under each irregular policy and report the
// colocated-vs-solo slowdown per tenant. Everything downstream of the
// recording runs on the trace engine, so the table is byte-identical
// for every -j.
func Colocation(opt Options) (*Figure, error) {
	ws := colocationWorkloads(opt)

	// Phase 1: record each tenant solo.
	ropt := opt
	rec := trace.NewCollector()
	ropt.Record = rec
	cells := make([]cell, len(ws))
	for i, w := range ws {
		w := w
		cells[i] = cell{
			label: w.Name(),
			run: func(r *trace.Recorder) (workloads.Result, error) {
				return workloads.RunTraced(baseConfig(opt, core.DefaultPolicy()), w, sys.AffAlloc, r)
			},
		}
	}
	if _, err := runCells(ropt, cells); err != nil {
		return nil, err
	}
	scs := rec.Trace().Scenarios
	if len(scs) != len(ws) {
		return nil, fmt.Errorf("colocation: recorded %d of %d tenants", len(scs), len(ws))
	}
	noise := trace.NoisyNeighbor(noiseSpec(opt))
	tenants := append(append([]*trace.Scenario(nil), scs...), noise)

	// Phase 2: compose the pair scenarios.
	pairs := [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {2, 3}}
	composed := make([]*trace.Scenario, len(pairs))
	for pi, p := range pairs {
		c, err := trace.Compose(
			[]*trace.Scenario{tenants[p[0]], tenants[p[1]]},
			trace.ComposeOptions{Seed: opt.Seed*1000003 + int64(pi)},
		)
		if err != nil {
			return nil, err
		}
		composed[pi] = c
	}

	// Phase 3: replay solos and pairs under every policy, in parallel.
	type task struct {
		sc     *trace.Scenario
		policy string
	}
	var tasks []task
	for _, sc := range tenants {
		for _, p := range colocationPolicies {
			tasks = append(tasks, task{sc, p})
		}
	}
	for _, sc := range composed {
		for _, p := range colocationPolicies {
			tasks = append(tasks, task{sc, p})
		}
	}
	results := make([]*trace.Result, len(tasks))
	if err := opt.forEach(len(tasks), func(i int) error {
		r, err := trace.Replay(tasks[i].sc, trace.Options{Policy: tasks[i].policy})
		if err != nil {
			return fmt.Errorf("colocation: replay %s under %s: %w", tasks[i].sc.Label, tasks[i].policy, err)
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}

	// Index solo cycles by (tenant label, policy).
	solo := map[string]map[string]float64{}
	ti := 0
	for _, sc := range tenants {
		solo[sc.Label] = map[string]float64{}
		for _, p := range colocationPolicies {
			solo[sc.Label][p] = float64(results[ti].Tenants[0].Cycles)
			ti++
		}
	}

	headers := append([]string{"pair"}, colocationPolicies...)
	tbl := stats.NewTable(
		fmt.Sprintf("colocated slowdown vs solo (A/B per tenant) at scale=%v", opt.Scale),
		headers...)
	for pi := range pairs {
		c := composed[pi]
		row := []interface{}{c.Label}
		for _, p := range colocationPolicies {
			r := results[ti]
			ti++
			if len(r.Tenants) != 2 {
				return nil, fmt.Errorf("colocation: %s replayed %d tenants", c.Label, len(r.Tenants))
			}
			sa := slowdown(float64(r.Tenants[0].Cycles), solo[c.TenantLabel(0)][p])
			sb := slowdown(float64(r.Tenants[1].Cycles), solo[c.TenantLabel(1)][p])
			row = append(row, fmt.Sprintf("%.2f/%.2f", sa, sb))
		}
		tbl.AddRow(row...)
	}
	return &Figure{
		ID:     "colocation",
		Title:  "Multi-Tenant Colocation Interference (trace-composed)",
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"each cell is tenantA/tenantB colocated-cycles over solo-cycles under that irregular policy",
			"tenants recorded solo under Aff-Alloc, composed with a seeded interleave, and replayed on the trace engine",
			"near-1.00 workload pairs mean bank-interleaved placements kept the tenants isolated; the noise tenant concentrates load on rotating hot banks",
		},
	}, nil
}

// slowdown guards the ratio against a zero solo baseline.
func slowdown(colo, solo float64) float64 {
	if solo <= 0 {
		return 0
	}
	return colo / solo
}
