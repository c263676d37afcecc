package trace_test

import (
	"bytes"
	"fmt"
	"testing"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
	"affinityalloc/internal/workloads"
)

// recordUnder records one workload under a full configuration.
func recordUnder(t *testing.T, w workloads.Workload, mode sys.Mode, seed int64, faultSpec string) *trace.Scenario {
	t.Helper()
	cfg := sys.DefaultConfig()
	cfg.Seed = seed
	if faultSpec != "" {
		f, err := faults.Parse(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = f
	}
	rec := trace.NewRecorder(w.Name())
	if _, err := workloads.RunTraced(cfg, w, mode, rec); err != nil {
		t.Fatalf("record %s: %v", w.Name(), err)
	}
	return rec.Scenario()
}

// Record→replay placement identity: replaying a recorded scenario with
// zero options must re-drive the allocator through the identical state
// trajectory, yielding byte-identical placements — across workload
// shapes (affine, irregular, pointer), fault specs, and the kernel shard
// count (1 or 4) that a recording made under the former sharded event
// kernel carries in its header's reserved slot.
func TestReplayPlacementIdentity(t *testing.T) {
	workloadSet := []workloads.Workload{
		tinyVecAdd(),
		tinyHashJoin(),
		workloads.LinkList{Lists: 16, Nodes: 32, Queries: 1},
	}
	for _, w := range workloadSet {
		for _, spec := range []string{"", "dead-banks=2"} {
			t.Run(fmt.Sprintf("%s/faults=%s", w.Name(), spec), func(t *testing.T) {
				sc := recordUnder(t, w, sys.AffAlloc, 1, spec)
				want := trace.RecordedDump(sc)
				for _, shards := range []uint64{1, 4} {
					t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
						res, err := trace.Replay(decodeOne(t, legacyBinary(t, sc, shards), sc), trace.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if got := res.PlacementDump(); !bytes.Equal(got, want) {
							t.Errorf("placements diverged:\n--- replay\n%s--- recorded\n%s", got, want)
						}
					})
				}
			})
		}
	}
}

// A round trip through both encodings must not perturb replay.
func TestReplayAfterEncodeRoundTrip(t *testing.T) {
	sc := recordUnder(t, tinyHashJoin(), sys.AffAlloc, 1, "")
	want := trace.RecordedDump(sc)
	tr := &trace.Trace{Scenarios: []*trace.Scenario{sc}}
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"binary", trace.Encode(tr)},
		{"jsonl", trace.EncodeJSONL(tr)},
	} {
		got, err := trace.DecodeAny(enc.data)
		if err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		res, err := trace.Replay(got.Scenarios[0], trace.Options{})
		if err != nil {
			t.Fatalf("%s: %v", enc.name, err)
		}
		if !bytes.Equal(res.PlacementDump(), want) {
			t.Errorf("%s: decoded scenario replays differently", enc.name)
		}
	}
}

// Replay must accept mode/policy/faults overrides and still
// produce a deterministic result (same overrides → same placements).
func TestReplayOverridesAreDeterministic(t *testing.T) {
	sc := recordUnder(t, tinyHashJoin(), sys.AffAlloc, 1, "")
	opts := []trace.Options{
		{Mode: "In-Core"},
		{Mode: "Near-L3"},
		{Policy: "minhop"},
		{Policy: "rnd"},
		{Faults: "dead-banks=1"},
	}
	for _, opt := range opts {
		a, err := trace.Replay(sc, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		b, err := trace.Replay(sc, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if !bytes.Equal(a.PlacementDump(), b.PlacementDump()) {
			t.Errorf("%+v: replay is not deterministic", opt)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("%+v: cycles differ: %d vs %d", opt, a.Cycles, b.Cycles)
		}
	}
}

// The reserved shard-count slot must stay inert on the replay path:
// whatever count a legacy header carries, placements and cycle counts
// are byte-identical to replaying the scenario as recorded.
func TestReplayShardInvariance(t *testing.T) {
	sc := recordUnder(t, tinyVecAdd(), sys.AffAlloc, 1, "")
	base, err := trace.Replay(sc, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []uint64{1, 2, 4} {
		r, err := trace.Replay(decodeOne(t, legacyBinary(t, sc, shards), sc), trace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.PlacementDump(), base.PlacementDump()) {
			t.Errorf("shards=%d: placements diverged from the recording", shards)
		}
		if r.Cycles != base.Cycles {
			t.Errorf("shards=%d: cycles %d != %d", shards, r.Cycles, base.Cycles)
		}
	}
}
