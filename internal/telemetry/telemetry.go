// Package telemetry is the observability substrate of the simulator: a
// lightweight registry of named counters and fixed-length series that the
// simulation components (noc.Network, cache.MemSystem, stream.Engine,
// cpu.Core) publish into at collection time, plus two exporters — a
// stable snake_case JSON metrics document and a Chrome trace_event JSON
// timeline of sim-time phases.
//
// The paper's argument rests on *where* traffic flows (per-link NoC hop
// heatmaps, per-bank access balance — Figs 5, 6, 12), so the registry
// keeps per-tile detail, not just whole-run aggregates. Everything stored
// is a raw count; rates and ratios are always derived by consumers, so
// two exports of the same run are byte-identical and diffable.
//
// Naming convention: all keys are stable snake_case identifiers, e.g.
// "l3_bank_accesses" (a per-bank series) or "noc_data_flit_hops" (a
// scalar). Series lengths are fixed by the topology (banks, links, DRAM
// channels, cores).
package telemetry

import "sort"

// Span is one sim-time phase for the trace exporter: a named interval in
// cycles. TID groups spans onto one timeline row; exporters may reassign
// it (e.g. one row per simulation cell).
type Span struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	TID   int    `json:"tid"`
	Start uint64 `json:"start"`
	Dur   uint64 `json:"dur"`
}

// Instant is one point event for the trace exporter, such as a fault
// occurrence, rendered as a Chrome "i" (instant) event at TS.
type Instant struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	TID  int    `json:"tid"`
	TS   uint64 `json:"ts"`
}

// Snapshot is one run's telemetry: scalar counters plus fixed-length
// series, keyed by stable snake_case names, and the recorded phase spans
// and instants. It marshals deterministically (encoding/json sorts map
// keys).
type Snapshot struct {
	Scalars  map[string]uint64   `json:"scalars"`
	Series   map[string][]uint64 `json:"series,omitempty"`
	Spans    []Span              `json:"-"`
	Instants []Instant           `json:"-"`
}

// Registry accumulates counters, series and spans during collection.
// It is not safe for concurrent use; each simulated system owns one.
type Registry struct {
	snap Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{snap: Snapshot{
		Scalars: make(map[string]uint64),
		Series:  make(map[string][]uint64),
	}}
}

// Add accumulates delta into the named scalar counter.
func (r *Registry) Add(name string, delta uint64) {
	r.snap.Scalars[name] += delta
}

// Set stores an absolute scalar value (last write wins).
func (r *Registry) Set(name string, v uint64) {
	r.snap.Scalars[name] = v
}

// SetSeries stores a copy of vals as the named series and accumulates its
// sum into the scalar of the same name suffixed "_total", so aggregate
// consumers never re-sum.
func (r *Registry) SetSeries(name string, vals []uint64) {
	cp := make([]uint64, len(vals))
	copy(cp, vals)
	r.snap.Series[name] = cp
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	r.snap.Scalars[name+"_total"] = sum
}

// AddSpan records one phase span.
func (r *Registry) AddSpan(s Span) {
	r.snap.Spans = append(r.snap.Spans, s)
}

// AddInstant records one point event.
func (r *Registry) AddInstant(i Instant) {
	r.snap.Instants = append(r.snap.Instants, i)
}

// Snapshot returns the accumulated state. The returned snapshot shares no
// mutable state with future registry writes for already-set series (they
// were copied in), but callers should treat it as read-only.
func (r *Registry) Snapshot() *Snapshot {
	s := r.snap
	return &s
}

// Publisher is implemented by simulation components that can publish
// their counters into a registry.
type Publisher interface {
	PublishTelemetry(r *Registry)
}

// Scalar returns the named scalar counter (zero if absent).
func (s *Snapshot) Scalar(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Scalars[name]
}

// SeriesOf returns the named series (nil if absent).
func (s *Snapshot) SeriesOf(name string) []uint64 {
	if s == nil {
		return nil
	}
	return s.Series[name]
}

// ScalarNames returns the sorted scalar keys.
func (s *Snapshot) ScalarNames() []string {
	names := make([]string, 0, len(s.Scalars))
	for k := range s.Scalars {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SeriesNames returns the sorted series keys.
func (s *Snapshot) SeriesNames() []string {
	names := make([]string, 0, len(s.Series))
	for k := range s.Series {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SeriesSummary describes the shape of one series — the load-balance view
// the paper's per-bank figures are about. All values are derived on call,
// never stored.
type SeriesSummary struct {
	Sum, Max uint64
	Mean     float64
	// Imbalance is max/mean (1.0 = perfectly balanced); 0 for an empty or
	// all-zero series.
	Imbalance float64
}

// Summarize computes the summary of a series.
func Summarize(vals []uint64) SeriesSummary {
	var s SeriesSummary
	if len(vals) == 0 {
		return s
	}
	for _, v := range vals {
		s.Sum += v
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = float64(s.Sum) / float64(len(vals))
	if s.Mean > 0 {
		s.Imbalance = float64(s.Max) / s.Mean
	}
	return s
}
