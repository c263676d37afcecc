package trace_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"affinityalloc/internal/sys"
	"affinityalloc/internal/trace"
)

// legacyBinary encodes a single-tenant scenario as afftrace/v1 binary
// the way a recording made while the simulator still had a sharded event
// kernel looks: the scenario frame's reserved uvarint slot carries the
// kernel shard count instead of the 0 the encoder writes today.
func legacyBinary(t *testing.T, sc *trace.Scenario, shards uint64) []byte {
	t.Helper()
	enc := trace.Encode(&trace.Trace{Scenarios: []*trace.Scenario{sc}})
	const magic = "AFFTRC1\n"

	// header hand-builds the scenario frame payload field by field, with
	// slot in the reserved position.
	header := func(slot uint64) []byte {
		p := []byte{1} // scenario frame
		str := func(s string) {
			p = binary.AppendUvarint(p, uint64(len(s)))
			p = append(p, s...)
		}
		str(sc.Label)
		str(sc.Mode)
		p = binary.AppendUvarint(p, uint64(sc.MeshW))
		p = binary.AppendUvarint(p, uint64(sc.MeshH))
		p = binary.AppendVarint(p, sc.Seed)
		str(sc.Policy)
		str(sc.Faults)
		p = binary.AppendUvarint(p, slot)
		p = binary.AppendUvarint(p, 0) // no tenant list
		return binary.AppendUvarint(p, sc.Cycles)
	}
	body := []byte(enc[len(magic):])
	n, sz := binary.Uvarint(body)
	if got := body[sz : sz+int(n)]; !bytes.Equal(got, header(0)) {
		t.Fatalf("hand-built header does not match the encoder's layout:\ngot  %x\nwant %x", header(0), got)
	}
	events := body[sz+int(n)+4:]

	legacy := header(shards)
	bin := append([]byte(magic), binary.AppendUvarint(nil, uint64(len(legacy)))...)
	bin = append(bin, legacy...)
	bin = binary.LittleEndian.AppendUint32(bin, crc32.Checksum(legacy, crc32.MakeTable(crc32.Castagnoli)))
	return append(bin, events...)
}

// legacyJSONL encodes a scenario as afftrace/v1 JSONL with the "shards"
// key a recording made under a sharded event kernel carries.
func legacyJSONL(t *testing.T, sc *trace.Scenario, shards string) []byte {
	t.Helper()
	jsonl := strings.Replace(string(trace.EncodeJSONL(&trace.Trace{Scenarios: []*trace.Scenario{sc}})),
		`{"scenario":{`, `{"scenario":{"shards":`+shards+`,`, 1)
	if !strings.Contains(jsonl, `"shards":`+shards) {
		t.Fatal("JSONL scenario header not found")
	}
	return []byte(jsonl)
}

// decodeOne decodes a trace that must hold exactly the one scenario sc
// was encoded from.
func decodeOne(t *testing.T, data []byte, sc *trace.Scenario) *trace.Scenario {
	t.Helper()
	tr, err := trace.DecodeAny(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Scenarios) != 1 || len(tr.Scenarios[0].Events) != len(sc.Events) {
		t.Fatalf("decoded %d scenarios", len(tr.Scenarios))
	}
	return tr.Scenarios[0]
}

// TestLegacyShardCountStillReplays pins afftrace/v1 compatibility with
// recordings made while the simulator still had a sharded event kernel:
// their scenario header carries a non-zero kernel shard count — in the
// binary frame's reserved uvarint slot, and as a "shards" key in JSONL.
// Both must decode, and the scenario must replay to its recorded
// placements (affsim -replay's MATCH).
func TestLegacyShardCountStillReplays(t *testing.T) {
	sc := recordTiny(t, tinyVecAdd(), sys.AffAlloc, 1)
	want := trace.RecordedDump(sc)
	for _, c := range []struct {
		name string
		data []byte
	}{{"binary", legacyBinary(t, sc, 4)}, {"jsonl", legacyJSONL(t, sc, "4")}} {
		got := decodeOne(t, c.data, sc)
		res, err := trace.Replay(got, trace.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(res.PlacementDump(), want) || !bytes.Equal(trace.RecordedDump(got), want) {
			t.Errorf("%s: legacy recording does not replay to MATCH", c.name)
		}
	}
}
