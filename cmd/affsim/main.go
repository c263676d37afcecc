// Command affsim runs one benchmark, one paper experiment, or the whole
// evaluation on the simulated system and prints paper-shaped output.
//
// Usage:
//
//	affsim -list
//	affsim -exp fig12 [-scale tiny|default|paper] [-seed N] [-j N]
//	affsim -all [-scale ...] [-seed N] [-j N] [-timing]
//	affsim -workload bfs [-scale ...] [-policy hybrid5|minhop|rnd|lnr] [-mode affalloc]
//	affsim ... [-faults dead-banks=2,dead-links=2] (degraded-substrate runs)
//	affsim ... [-realloc epoch=2000,threshold=0.25] (online re-allocation)
//	affsim ... [-metrics-out m.json] [-trace-out t.json] [-pprof cpu.prof]
//	affsim ... [-record run.jsonl] (record an afftrace/v1 scenario trace)
//	affsim -replay run.jsonl (re-drive a recorded trace; verifies placements)
//	affsim -validate-metrics m.json
//
// Independent simulation cells (workload × configuration runs) execute
// across -j worker goroutines; results are aggregated in a fixed order,
// so the rendered figures — and the -metrics-out / -trace-out files —
// are byte-identical for every -j. Timing accounting goes to stderr,
// keeping stdout deterministic.
//
// For wall-clock performance measurement (ns/op, allocs/op,
// sim-cycles/sec) and the committed BENCH_*.json baselines, use
// cmd/affbench; this binary reports simulated results only.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"affinityalloc/internal/cliconf"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/stats"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

func main() {
	cc := cliconf.Register(flag.CommandLine,
		cliconf.HarnessFlags|cliconf.ArtifactFlags|cliconf.FlagPolicy|
			cliconf.FlagRecord|cliconf.FlagReplay|cliconf.FlagRealloc)
	var (
		list     = flag.Bool("list", false, "list experiments and workloads")
		exp      = flag.String("exp", "", "experiment id to regenerate (fig4, fig6, fig12, ...)")
		all      = flag.Bool("all", false, "regenerate every experiment")
		workload = flag.String("workload", "", "workload to run under all three configurations")
		modeStr  = flag.String("mode", "all", "with -workload: run one configuration (incore|nearl3|affalloc) or all")
		validate = flag.String("validate-metrics", "", "parse and schema-check a metrics JSON document, then exit")
	)
	flag.Parse()

	stopProf, err := cc.StartProfile()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if err := run(cc, *list, *exp, *all, *workload, *modeStr, *validate); err != nil {
		stopProf()
		fatal(err)
	}
}

func run(cc *cliconf.Config, list bool, exp string, all bool, workload, modeStr, validatePath string) error {
	opt, err := cc.Options()
	if err != nil {
		return err
	}

	// -record hooks an afftrace collector into the workload cells the
	// invocation runs; the trace is written once the run succeeds.
	// Experiments that probe the memory system directly instead of
	// running workload cells (fig14's migration timeline) record
	// nothing — that yields an empty trace, noted on stderr.
	var recCol *trace.Collector
	if cc.RecordOut != "" {
		recCol = trace.NewCollector()
		opt.Record = recCol
	}
	writeRecording := func(err error) error {
		if err != nil || recCol == nil {
			return err
		}
		if len(recCol.Trace().Scenarios) == 0 {
			fmt.Fprintf(os.Stderr, "affsim: note: no workload cells ran; %s records an empty trace\n", cc.RecordOut)
		}
		return trace.WriteFile(cc.RecordOut, recCol.Trace())
	}

	switch {
	case cc.ReplayIn != "":
		return runReplay(cc)
	case validatePath != "":
		return validateMetrics(validatePath)
	case list:
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		fmt.Println("workloads:")
		for _, w := range workloadSet(opt) {
			fmt.Printf("  %s\n", w.Name())
		}
		return nil
	case all:
		arts, closeArts, err := cc.Artifacts("all", opt.Scale)
		if err != nil {
			return err
		}
		defer closeArts()
		return writeRecording(harness.RunAll(opt, os.Stdout, nil, os.Stderr, cc.Timing, arts))
	case exp != "":
		return writeRecording(runExperiment(cc, opt, exp))
	case workload != "":
		return writeRecording(runWorkload(cc, opt, workload, modeStr, recCol))
	default:
		flag.Usage()
		os.Exit(2)
		return nil
	}
}

func fatal(err error) {
	var fails *harness.CellFailures
	if errors.As(err, &fails) {
		// One-line failure summary: which cells died; their reasons are
		// already in the report/FAILED markings.
		fmt.Fprintf(os.Stderr, "affsim: %d cell(s) failed: %s\n",
			len(fails.Cells), strings.Join(fails.Failed(), ", "))
	} else {
		fmt.Fprintln(os.Stderr, "affsim:", err)
	}
	os.Exit(1)
}

// validateMetrics schema-checks a metrics document (the CI gate).
func validateMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := telemetry.ParseDocument(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid metrics document (schema %d, %d cells)\n", path, doc.SchemaVersion, len(doc.Cells))
	return nil
}

func runExperiment(cc *cliconf.Config, opt harness.Options, exp string) error {
	e, ok := harness.Lookup(exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", exp)
	}
	arts, closeArts, err := cc.Artifacts(e.ID, opt.Scale)
	if err != nil {
		return err
	}
	defer closeArts()
	opt.Timing = &harness.Timing{}
	if arts != nil {
		opt.Collect = &harness.Collector{}
	}
	start := time.Now()
	fig, err := e.Run(opt)
	if err != nil {
		return err
	}
	fig.Render(os.Stdout)
	if arts != nil {
		cells := opt.Collect.Cells()
		for i := range cells {
			cells[i].Label = e.ID + "/" + cells[i].Label
		}
		if err := arts.Write(cells); err != nil {
			return err
		}
	}
	if cc.Timing {
		opt.Timing.Report(os.Stderr)
		n, cellWall, sim := opt.Timing.Summary()
		fmt.Fprintf(os.Stderr, "%s: %d cells, wall %.2fs (cellsum %.2fs), sim %d cyc, %.1f Mcyc/s\n",
			e.ID, n, time.Since(start).Seconds(), cellWall.Seconds(), uint64(sim),
			opt.Timing.SimCyclesPerSec()/1e6)
	}
	return nil
}

func workloadSet(opt harness.Options) []workloads.Workload {
	// skew (the two-phase hotspot behind the online-reallocation tests) is
	// runnable directly but is not part of the Fig-12 suite, so it is
	// appended here rather than to harness.AllWorkloads.
	return append(harness.AllWorkloads(opt), workloads.DefaultSkew())
}

// parseModes resolves the -mode flag: "all" (or empty) selects the three
// presentation-order configurations, anything else one sys.ParseMode name.
func parseModes(v string) ([]sys.Mode, error) {
	if v == "" || strings.EqualFold(v, "all") {
		return sys.Modes[:], nil
	}
	m, err := sys.ParseMode(v)
	if err != nil {
		return nil, err
	}
	return []sys.Mode{m}, nil
}

// runReplay re-drives a recorded trace through the allocator and memory
// system and verifies the record→replay placement identity, printing one
// row per scenario. Any DIVERGE row makes the invocation fail.
func runReplay(cc *cliconf.Config) error {
	tr, err := trace.ReadFile(cc.ReplayIn)
	if err != nil {
		return err
	}
	if len(tr.Scenarios) == 0 {
		return fmt.Errorf("%s: trace has no scenarios (the recording run had no workload cells?)", cc.ReplayIn)
	}
	tbl := stats.NewTable(fmt.Sprintf("replay of %s (%d scenarios)", cc.ReplayIn, len(tr.Scenarios)),
		"scenario", "mode", "tenants", "allocs", "cycles.rec", "cycles.replay", "digest", "placements")
	diverged := 0
	for _, sc := range tr.Scenarios {
		allocs := int64(0)
		for t := 0; t < sc.NumTenants(); t++ {
			allocs += sc.AllocCount(t)
		}
		res, err := trace.Replay(sc, trace.Options{})
		if err != nil {
			diverged++
			tbl.AddRow(sc.Label, sc.Mode, sc.NumTenants(), allocs, sc.Cycles, "FAILED", "-", err.Error())
			continue
		}
		got, want := res.PlacementDump(), trace.RecordedDump(sc)
		status := "MATCH"
		if !bytes.Equal(got, want) {
			status = "DIVERGE"
			diverged++
		}
		tbl.AddRow(sc.Label, sc.Mode, sc.NumTenants(), allocs,
			sc.Cycles, uint64(res.Cycles), trace.Digest(got), status)
	}
	tbl.Render(os.Stdout)
	if diverged > 0 {
		return fmt.Errorf("replay: %d of %d scenario(s) diverged from their recorded placements",
			diverged, len(tr.Scenarios))
	}
	return nil
}

func runWorkload(cc *cliconf.Config, opt harness.Options, name, modeStr string, recCol *trace.Collector) error {
	pcfg, err := cc.Policy()
	if err != nil {
		return err
	}
	modes, err := parseModes(modeStr)
	if err != nil {
		return err
	}
	var w workloads.Workload
	for _, cand := range workloadSet(opt) {
		if cand.Name() == name {
			w = cand
			break
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}
	arts, closeArts, err := cc.Artifacts("workload/"+name, opt.Scale)
	if err != nil {
		return err
	}
	defer closeArts()

	speedupCol := "speedup.vs.InCore"
	if len(modes) == 1 {
		speedupCol = "speedup"
	}
	tbl := stats.NewTable(fmt.Sprintf("%s at scale=%v (policy %v)", name, opt.Scale, pcfg.Policy),
		"config", "cycles", speedupCol, "hops.data", "hops.control", "hops.offload", "l3miss", "noc.util", "energy")
	cfg := sys.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.Policy = pcfg
	cfg.Faults = opt.Faults
	cfg.Realloc = opt.Realloc
	var base workloads.Result
	var cells []harness.CollectedCell
	var failed []harness.CellFailure
	haveBase := false
	slot := recCol.Reserve(len(modes))
	for i, mode := range modes {
		label := fmt.Sprintf("%s/%v", name, mode)
		rec := recCol.NewRecorder(label)
		res, err := runGuarded(cfg, w, mode, rec)
		if err != nil {
			// A failed configuration doesn't abort the others: render its
			// row as FAILED and keep going (exit status stays non-zero).
			failed = append(failed, harness.CellFailure{Index: i, Label: label, Err: err})
			tbl.AddRow(mode.String(), "FAILED", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		if !haveBase {
			base, haveBase = res, true
		}
		recCol.Put(slot+i, rec.Scenario())
		cells = append(cells, harness.CollectedCell{Label: label, Snap: res.Metrics.Detail})
		d, c, o := res.Metrics.DataHops()
		tbl.AddRow(mode.String(), uint64(res.Metrics.Cycles),
			float64(base.Metrics.Cycles)/float64(res.Metrics.Cycles),
			d, c, o, res.Metrics.L3MissRate(), res.Metrics.NoCUtil(), res.Metrics.EnergyTotal())
	}
	tbl.Render(os.Stdout)
	if err := arts.Write(cells); err != nil {
		return err
	}
	if len(failed) > 0 {
		return &harness.CellFailures{Cells: failed}
	}
	return nil
}

// runGuarded runs one (workload, mode) cell converting panics inside the
// simulation — typed data-plane access failures included — into errors, so
// one crashing configuration cannot take down the whole invocation.
func runGuarded(cfg sys.Config, w workloads.Workload, mode sys.Mode, rec *trace.Recorder) (res workloads.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", e)
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return workloads.RunTraced(cfg, w, mode, rec)
}
