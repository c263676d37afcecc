package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"affinityalloc/internal/harness"
)

// Schema is the BENCH_*.json document version. Bump on any incompatible
// field change; Validate rejects unknown versions so a stale comparison
// tool fails loudly instead of misreading a baseline.
const Schema = "affbench/v1"

// Entry is one runnable benchmark.
type Entry struct {
	Name string
	F    func(*testing.B)
}

// Benchmark is one measured result inside a Document. Field names are the
// stable snake_case schema of the committed BENCH_*.json baselines.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SimCyclesPerSec is summed cell sim-cycles over summed cell wall
	// time (harness.Timing.SimCyclesPerSec); zero for the kernel/*
	// entries of older baselines.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
}

// Document is one benchmark baseline file.
type Document struct {
	Schema string `json:"schema"`
	// Scale and Seed record the harness sizing the experiment benchmarks
	// ran at, so a diff of mismatched baselines is rejected up front.
	Scale      string      `json:"scale"`
	Seed       int64       `json:"seed"`
	Benchtime  string      `json:"benchtime"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Validate schema-checks a document: version, sizing, and per-benchmark
// field sanity (unique names, positive timings, non-negative counters).
func (d *Document) Validate() error {
	if d.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", d.Schema, Schema)
	}
	if _, err := harness.ParseScale(d.Scale); err != nil {
		return fmt.Errorf("bench: bad scale: %v", err)
	}
	if len(d.Benchmarks) == 0 {
		return fmt.Errorf("bench: no benchmarks")
	}
	seen := make(map[string]bool, len(d.Benchmarks))
	for i, b := range d.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("bench: benchmark %d has no name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("bench: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Iterations <= 0 {
			return fmt.Errorf("bench: %s: iterations %d, want > 0", b.Name, b.Iterations)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("bench: %s: ns_per_op %g, want > 0", b.Name, b.NsPerOp)
		}
		if b.AllocsPerOp < 0 || b.BytesPerOp < 0 || b.SimCyclesPerSec < 0 {
			return fmt.Errorf("bench: %s: negative counter", b.Name)
		}
	}
	return nil
}

// Parse decodes and validates a baseline document.
func Parse(data []byte) (*Document, error) {
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: %v", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Encode renders the document as committed-baseline JSON (stable
// indentation, trailing newline).
func (d *Document) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Run executes the entries in order and collects their results. Each
// entry runs under testing.Benchmark, honoring the process's
// -test.benchtime setting (cmd/affbench wires its -benchtime flag
// through). progress, when non-nil, receives one line per finished entry.
func Run(entries []Entry, progress func(string)) []Benchmark {
	out := make([]Benchmark, 0, len(entries))
	for _, e := range entries {
		r := testing.Benchmark(e.F)
		b := Benchmark{
			Name:        e.Name,
			Iterations:  int64(r.N),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if v, ok := r.Extra["simcycles/s"]; ok {
			b.SimCyclesPerSec = v
		}
		if progress != nil {
			progress(fmt.Sprintf("%-28s %12.1f ns/op %8d allocs/op", e.Name, b.NsPerOp, b.AllocsPerOp))
		}
		out = append(out, b)
	}
	return out
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name        string
	Old, New    *Benchmark // nil when the benchmark appears on one side only
	Ratio       float64    // new/old ns_per_op; 0 when either side is missing
	NsRegressed bool
	AllocsGrew  bool
}

// Compare diffs two baselines. A benchmark regresses when its ns/op grew
// by more than threshold (e.g. 0.25 = 25%) or its allocs/op increased at
// all — allocation counts are exact, so any growth is a real change.
// Sizing mismatches are an error: the numbers would not be comparable.
func Compare(old, new *Document, threshold float64) ([]Delta, error) {
	if old.Scale != new.Scale || old.Seed != new.Seed {
		return nil, fmt.Errorf("bench: baselines not comparable: old scale=%s seed=%d, new scale=%s seed=%d",
			old.Scale, old.Seed, new.Scale, new.Seed)
	}
	byName := func(d *Document) map[string]*Benchmark {
		m := make(map[string]*Benchmark, len(d.Benchmarks))
		for i := range d.Benchmarks {
			m[d.Benchmarks[i].Name] = &d.Benchmarks[i]
		}
		return m
	}
	om, nm := byName(old), byName(new)
	names := make([]string, 0, len(om)+len(nm))
	for n := range om {
		names = append(names, n)
	}
	for n := range nm {
		if _, ok := om[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []Delta
	for _, n := range names {
		d := Delta{Name: n, Old: om[n], New: nm[n]}
		if d.Old != nil && d.New != nil {
			d.Ratio = d.New.NsPerOp / d.Old.NsPerOp
			d.NsRegressed = d.Ratio > 1+threshold
			d.AllocsGrew = d.New.AllocsPerOp > d.Old.AllocsPerOp
		}
		out = append(out, d)
	}
	return out, nil
}

// RenderCompare writes the comparison as a table and returns the number
// of regressions flagged.
func RenderCompare(deltas []Delta, threshold float64) (string, int) {
	var b strings.Builder
	regressions := 0
	fmt.Fprintf(&b, "%-34s %14s %14s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "verdict")
	for _, d := range deltas {
		switch {
		case d.Old == nil:
			fmt.Fprintf(&b, "%-34s %14s %14.1f %8s  new (no baseline)\n", d.Name, "-", d.New.NsPerOp, "-")
		case d.New == nil:
			fmt.Fprintf(&b, "%-34s %14.1f %14s %8s  removed\n", d.Name, d.Old.NsPerOp, "-", "-")
		default:
			verdict := "ok"
			if d.NsRegressed {
				verdict = fmt.Sprintf("REGRESSION (>%g%% slower)", threshold*100)
				regressions++
			}
			if d.AllocsGrew {
				verdict += fmt.Sprintf(" ALLOCS %d -> %d", d.Old.AllocsPerOp, d.New.AllocsPerOp)
				if !d.NsRegressed {
					regressions++
				}
			}
			fmt.Fprintf(&b, "%-34s %14.1f %14.1f %7.2fx  %s\n", d.Name, d.Old.NsPerOp, d.New.NsPerOp, d.Ratio, verdict)
		}
	}
	return b.String(), regressions
}
