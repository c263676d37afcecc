package harness

import (
	"bytes"
	"fmt"
	"testing"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// fig4TraceAndReport runs the Fig-4 experiment with recording on and
// returns (JSONL trace bytes, rendered figure bytes).
func fig4TraceAndReport(t *testing.T, jobs int, fspec string) ([]byte, []byte) {
	t.Helper()
	opt := Options{Scale: Tiny, Seed: 1, Jobs: jobs}
	if fspec != "" {
		f, err := faults.Parse(fspec)
		if err != nil {
			t.Fatal(err)
		}
		opt.Faults = f
	}
	col := trace.NewCollector()
	opt.Record = col
	fig, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	return trace.EncodeJSONL(col.Trace()), buf.Bytes()
}

// The record→replay differential gate, as a table across worker count
// (j1/j8), machine health (clean/faulted) and the kernel shard count
// (1/4) that a recording made under the former sharded event kernel
// carries in its JSONL scenario headers. For every combination the
// recorded trace and the rendered figure must be byte-identical to the
// j=1 run (recording is slot-ordered and observation-only), and
// replaying every recorded scenario with zero options must reproduce
// the recorded placements byte-for-byte.
func TestRecordReplayGate(t *testing.T) {
	recorded := map[string][]byte{} // fspec → j1 trace, j1/j8-checked
	record := func(t *testing.T, fspec string) []byte {
		if tr, ok := recorded[fspec]; ok {
			return tr
		}
		tr1, rep1 := fig4TraceAndReport(t, 1, fspec)
		tr8, rep8 := fig4TraceAndReport(t, 8, fspec)
		if !bytes.Equal(tr1, tr8) {
			t.Error("recorded trace differs between -j1 and -j8")
		}
		if !bytes.Equal(rep1, rep8) {
			t.Error("figure differs between -j1 and -j8")
		}
		if len(tr1) == 0 {
			t.Fatal("empty recorded trace")
		}
		recorded[fspec] = tr1
		return tr1
	}
	for _, shards := range []int{1, 4} {
		for _, fspec := range []string{"", "dead-banks=2"} {
			t.Run(fmt.Sprintf("shards=%d/faults=%s", shards, fspec), func(t *testing.T) {
				tr := record(t, fspec)
				legacy := bytes.ReplaceAll(tr, []byte(`{"scenario":{`),
					[]byte(fmt.Sprintf(`{"scenario":{"shards":%d,`, shards)))
				if bytes.Equal(legacy, tr) {
					t.Fatal("no JSONL scenario header found")
				}
				decoded, err := trace.ParseJSONL(legacy)
				if err != nil {
					t.Fatal(err)
				}
				if len(decoded.Scenarios) == 0 {
					t.Fatal("no scenarios recorded")
				}
				for _, sc := range decoded.Scenarios {
					res, err := trace.Replay(sc, trace.Options{})
					if err != nil {
						t.Fatalf("replay %s: %v", sc.Label, err)
					}
					got, want := res.PlacementDump(), trace.RecordedDump(sc)
					if !bytes.Equal(got, want) {
						t.Errorf("%s: replay diverged from recording:\n--- replay\n%s--- recorded\n%s",
							sc.Label, got, want)
					}
				}
			})
		}
	}
}

// Recording must not perturb results: the same experiment with and
// without a Record collector renders byte-identical figures.
func TestRecordingDoesNotPerturbFigures(t *testing.T) {
	opt := Options{Scale: Tiny, Seed: 1, Jobs: 4}
	fig, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	fig.Render(&plain)
	_, recorded := fig4TraceAndReport(t, 4, "")
	if !bytes.Equal(plain.Bytes(), recorded) {
		t.Error("recording changed the rendered figure")
	}
}

// A retried cell's scenario must reflect only the successful attempt,
// and failed cells leave no scenario behind.
func TestRecordSkipsFailedAttempts(t *testing.T) {
	col := trace.NewCollector()
	opt := Options{Jobs: 2, CellRetries: 2, Record: col}
	attempts := 0
	cells := []cell{
		{label: "flaky", run: func(rec *trace.Recorder) (workloads.Result, error) {
			attempts++
			rec.Begin(baseConfig(opt, core.DefaultPolicy()), 0)
			if attempts < 2 {
				return workloads.Result{}, fmt.Errorf("wobble: %w", ErrTransient)
			}
			return workloads.Result{Checksum: 1}, nil
		}},
		{label: "dead", run: func(rec *trace.Recorder) (workloads.Result, error) {
			return workloads.Result{}, fmt.Errorf("hard failure")
		}},
	}
	_, err := runCells(opt, cells)
	if err == nil {
		t.Fatal("expected the dead cell's failure")
	}
	tr := col.Trace()
	if len(tr.Scenarios) != 1 {
		t.Fatalf("collected %d scenarios, want 1 (flaky's successful attempt only)", len(tr.Scenarios))
	}
	if tr.Scenarios[0].Label != "flaky" {
		t.Errorf("collected %q, want flaky", tr.Scenarios[0].Label)
	}
}
