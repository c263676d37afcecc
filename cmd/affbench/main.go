// Command affbench runs the repository's benchmark suite — every paper
// experiment, end to end — and maintains the committed BENCH_*.json
// baselines: it emits a schema-validated result document, validates
// existing ones, and diffs two baselines to flag regressions.
//
// Usage:
//
//	affbench [-scale tiny|default|paper] [-seed N] [-benchtime 1x|100ms]
//	         [-filter regexp] [-o bench.json] [-q]
//	affbench -validate BENCH_5.json
//	affbench -compare old.json new.json [-threshold 0.25] [-strict]
//
// A benchmark regresses when its ns/op grows by more than -threshold
// (default 25%) or its allocs/op increases at all. -compare always prints
// the full table and exits 0 unless -strict is set (CI runs the diff
// report-only, so a noisy runner cannot block the pipeline).
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"

	"affinityalloc/internal/bench"
	"affinityalloc/internal/harness"
)

func main() {
	testing.Init() // registers -test.* flags so -benchtime can be wired through
	var (
		scaleStr  = flag.String("scale", "tiny", "experiment benchmark scale: tiny|default|paper")
		seed      = flag.Int64("seed", 1, "simulation seed for experiment benchmarks")
		benchtime = flag.String("benchtime", "1x", "per-benchmark time or iteration budget (testing -benchtime syntax)")
		filter    = flag.String("filter", "", "run only benchmarks whose name matches this regexp")
		outPath   = flag.String("o", "", "write the result document to this file (default stdout)")
		quiet     = flag.Bool("q", false, "suppress per-benchmark progress on stderr")
		validate  = flag.String("validate", "", "parse and schema-check a baseline document, then exit")
		compare   = flag.Bool("compare", false, "diff two baseline documents: affbench -compare old.json new.json")
		threshold = flag.Float64("threshold", 0.25, "with -compare: flag ns/op growth beyond this fraction")
		strict    = flag.Bool("strict", false, "with -compare: exit non-zero when regressions are flagged")
	)
	flag.Parse()

	if err := run(*scaleStr, *seed, *benchtime, *filter, *outPath,
		*quiet, *validate, *compare, *threshold, *strict, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "affbench:", err)
		os.Exit(1)
	}
}

func run(scaleStr string, seed int64, benchtime string, filter, outPath string,
	quiet bool, validatePath string, compare bool, threshold float64, strict bool, args []string) error {
	switch {
	case validatePath != "":
		return validateDoc(validatePath)
	case compare:
		return compareDocs(args, threshold, strict)
	}

	scale, err := harness.ParseScale(scaleStr)
	if err != nil {
		return err
	}
	var re *regexp.Regexp
	if filter != "" {
		if re, err = regexp.Compile(filter); err != nil {
			return err
		}
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return fmt.Errorf("bad -benchtime: %v", err)
	}

	entries := bench.Entries(scale, seed, re)
	if len(entries) == 0 {
		return fmt.Errorf("no benchmarks match filter %q", filter)
	}
	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if quiet {
		progress = nil
	}
	doc := &bench.Document{
		Schema:     bench.Schema,
		Scale:      scale.String(),
		Seed:       seed,
		Benchtime:  benchtime,
		Benchmarks: bench.Run(entries, progress),
	}
	if err := doc.Validate(); err != nil {
		return err
	}
	out, err := doc.Encode()
	if err != nil {
		return err
	}
	if outPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

func validateDoc(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	d, err := bench.Parse(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid %s document, %d benchmarks (scale %s, seed %d)\n",
		path, d.Schema, len(d.Benchmarks), d.Scale, d.Seed)
	return nil
}

func compareDocs(args []string, threshold float64, strict bool) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs exactly two files: affbench -compare old.json new.json")
	}
	load := func(path string) (*bench.Document, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return bench.Parse(data)
	}
	old, err := load(args[0])
	if err != nil {
		return err
	}
	cur, err := load(args[1])
	if err != nil {
		return err
	}
	deltas, err := bench.Compare(old, cur, threshold)
	if err != nil {
		return err
	}
	table, regressions := bench.RenderCompare(deltas, threshold)
	fmt.Print(table)
	if regressions > 0 {
		fmt.Printf("%d regression(s) flagged (threshold %g%%)\n", regressions, threshold*100)
		if strict {
			os.Exit(1)
		}
	} else {
		fmt.Println("no regressions")
	}
	return nil
}
