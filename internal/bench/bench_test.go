package bench

import (
	"strings"
	"testing"
)

func doc(names ...string) *Document {
	d := &Document{Schema: Schema, Scale: "tiny", Seed: 1, Benchtime: "1x"}
	for i, n := range names {
		d.Benchmarks = append(d.Benchmarks, Benchmark{
			Name: n, Iterations: 1, NsPerOp: float64(100 * (i + 1)), AllocsPerOp: int64(i),
		})
	}
	return d
}

func TestValidateRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Document)
		want string
	}{
		{"wrong-schema", func(d *Document) { d.Schema = "affbench/v0" }, "schema"},
		{"bad-scale", func(d *Document) { d.Scale = "huge" }, "scale"},
		{"empty", func(d *Document) { d.Benchmarks = nil }, "no benchmarks"},
		{"dup-name", func(d *Document) { d.Benchmarks[1].Name = d.Benchmarks[0].Name }, "duplicate"},
		{"zero-iters", func(d *Document) { d.Benchmarks[0].Iterations = 0 }, "iterations"},
		{"zero-ns", func(d *Document) { d.Benchmarks[0].NsPerOp = 0 }, "ns_per_op"},
		{"negative-allocs", func(d *Document) { d.Benchmarks[0].AllocsPerOp = -1 }, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := doc("a", "b")
			tc.mut(d)
			err := d.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	d := doc("experiment/fig12", "experiment/fig4")
	d.Benchmarks[1].SimCyclesPerSec = 1e6
	data, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 2 || got.Benchmarks[1].SimCyclesPerSec != 1e6 {
		t.Errorf("round trip lost data: %+v", got)
	}
	if data[len(data)-1] != '\n' {
		t.Error("Encode should end with a newline")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := doc("steady", "slower", "allocs", "gone")
	cur := doc("steady", "slower", "allocs", "added")
	cur.Benchmarks[1].NsPerOp = old.Benchmarks[1].NsPerOp * 1.5 // > 25% slower
	cur.Benchmarks[2].AllocsPerOp++                             // any alloc growth regresses

	deltas, err := Compare(old, cur, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["steady"]; d.NsRegressed || d.AllocsGrew {
		t.Error("unchanged benchmark flagged")
	}
	if !byName["slower"].NsRegressed {
		t.Error("50% slowdown not flagged at 25% threshold")
	}
	if !byName["allocs"].AllocsGrew {
		t.Error("alloc growth not flagged")
	}
	if d := byName["gone"]; d.Old == nil || d.New != nil {
		t.Error("removed benchmark not reported as removed")
	}
	if d := byName["added"]; d.Old != nil || d.New == nil {
		t.Error("new benchmark not reported as baseline-less")
	}
	table, regressions := RenderCompare(deltas, 0.25)
	if regressions != 2 {
		t.Errorf("regressions = %d, want 2\n%s", regressions, table)
	}
	if !strings.Contains(table, "REGRESSION") || !strings.Contains(table, "ALLOCS 2 -> 3") {
		t.Errorf("table missing verdicts:\n%s", table)
	}
}

func TestCompareRejectsMismatchedSizing(t *testing.T) {
	old, cur := doc("a"), doc("a")
	cur.Seed = 2
	if _, err := Compare(old, cur, 0.25); err == nil {
		t.Error("seed mismatch not rejected")
	}
	cur = doc("a")
	cur.Scale = "default"
	if _, err := Compare(old, cur, 0.25); err == nil {
		t.Error("scale mismatch not rejected")
	}
}
