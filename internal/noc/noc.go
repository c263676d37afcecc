// Package noc models the on-chip mesh interconnect: X-Y wormhole routing
// over 32-byte links, per-link serialization and contention, and traffic
// accounting split into the paper's three message classes (Data, Control,
// Offload). Every figure's "NoC Hops" bars come from this package's
// counters.
package noc

import (
	"fmt"

	"affinityalloc/internal/engine"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/topo"
)

// Class categorizes a message for traffic accounting, matching the
// stacked-bar breakdown in Figs 4, 6, 12, 13 and 20.
type Class int

const (
	// Data carries operands or cache lines (element forwarding, line
	// fills, writebacks).
	Data Class = iota
	// Control carries requests, acknowledgements, indirect-access
	// requests, credits, and coherence traffic.
	Control
	// Offload carries stream configuration and stream migration state.
	Offload

	// NumClasses is the number of message classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Control:
		return "control"
	case Offload:
		return "offload"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Config parameterizes the network. Defaults mirror Table 2.
type Config struct {
	LinkBytes     int         // flit width (Table 2: 32B)
	PerHopCycles  engine.Time // router + link traversal per hop
	LocalCycles   engine.Time // latency of a same-tile "message"
	HeaderBytes   int         // per-message header added to payload
	ModelConflict bool        // model per-link serialization/contention
	// Faults, when set, degrades links: dead links force detour routes
	// and lossy links pay retransmits. A pointer keeps Config comparable
	// for the all-zero default check.
	Faults *faults.Injector
}

// DefaultConfig returns Table 2's NoC parameters.
func DefaultConfig() Config {
	return Config{
		LinkBytes:     32,
		PerHopCycles:  2, // 5-stage router pipelined + 1-cycle link, steady state
		LocalCycles:   1,
		HeaderBytes:   8,
		ModelConflict: true,
	}
}

// ClassStats aggregates traffic for one message class. The JSON tags are
// the stable snake_case metrics schema.
type ClassStats struct {
	Messages uint64 `json:"messages"`
	Flits    uint64 `json:"flits"`
	// FlitHops is flits × hops summed over messages — the traffic
	// measure behind the paper's "NoC Hops" bars.
	FlitHops uint64 `json:"flit_hops"`
}

// Network is the mesh interconnect model. It is not safe for concurrent
// use; one system belongs to one workload goroutine.
type Network struct {
	mesh *topo.Mesh
	cfg  Config

	linkSrv   []*engine.Server // per-link flit schedule
	linkFlits []uint64         // flits ever pushed through each directed link

	classes    [NumClasses]ClassStats
	routeCache []topo.Link // scratch buffer reused across sends
}

// withDefaults fills unset fields. A fully zero Config selects
// DefaultConfig wholesale (the conventional "just give me Table 2"
// request); otherwise only the zero-valued numeric fields are
// defaulted individually, so a partially-specified config keeps its
// explicit settings — a custom PerHopCycles or ModelConflict=false is
// preserved rather than silently discarded.
func (cfg Config) withDefaults() Config {
	// The all-zero check ignores Faults: attaching an injector to an
	// otherwise-default config must not demote it to the field-by-field
	// path (which would lose ModelConflict's default of true).
	bare := cfg
	bare.Faults = nil
	if bare == (Config{}) {
		def := DefaultConfig()
		def.Faults = cfg.Faults
		return def
	}
	def := DefaultConfig()
	if cfg.LinkBytes <= 0 {
		cfg.LinkBytes = def.LinkBytes
	}
	if cfg.PerHopCycles <= 0 {
		cfg.PerHopCycles = def.PerHopCycles
	}
	if cfg.LocalCycles <= 0 {
		cfg.LocalCycles = def.LocalCycles
	}
	if cfg.HeaderBytes <= 0 {
		cfg.HeaderBytes = def.HeaderBytes
	}
	return cfg
}

// New builds a network over the given mesh. Zero-valued cfg fields take
// Table-2 defaults; see withDefaults.
func New(mesh *topo.Mesh, cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		mesh:      mesh,
		cfg:       cfg,
		linkSrv:   make([]*engine.Server, mesh.NumLinks()),
		linkFlits: make([]uint64, mesh.NumLinks()),
	}
	for i := range n.linkSrv {
		n.linkSrv[i] = engine.NewServer(1, 8, 4096)
	}
	return n
}

// Mesh returns the underlying topology.
func (n *Network) Mesh() *topo.Mesh { return n.mesh }

// PerHopCycles reports the resolved router+link traversal latency — the
// minimum cost of any cross-tile hop.
func (n *Network) PerHopCycles() engine.Time { return n.cfg.PerHopCycles }

// Flits returns the number of flits a message with the given payload
// occupies, including the header flit share.
func (n *Network) Flits(payloadBytes int) int {
	total := payloadBytes + n.cfg.HeaderBytes
	f := (total + n.cfg.LinkBytes - 1) / n.cfg.LinkBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Send models one message injected at cycle now, travelling from bank
// `from` to bank `to`, and returns its arrival cycle at the destination.
// Traffic counters are charged to the given class. Same-tile messages
// cost LocalCycles and no link traffic.
func (n *Network) Send(now engine.Time, from, to int, class Class, payloadBytes int) engine.Time {
	flits := n.Flits(payloadBytes)
	st := &n.classes[class]
	st.Messages++
	if from == to {
		return now + n.cfg.LocalCycles
	}
	hops := n.mesh.Hops(from, to)
	st.Flits += uint64(flits)

	// Fault path: dead links force detours off the X-Y route, lossy links
	// pay retransmits. Gated so clean configs (and faulted configs whose
	// spec leaves the links alone) keep the historical fast path exactly.
	inj := n.cfg.Faults
	degraded := inj != nil && inj.DegradedLinks()
	if degraded {
		var detoured bool
		n.routeCache, detoured = inj.Route(n.routeCache[:0], from, to)
		if detoured {
			inj.NoteDetour(now, len(n.routeCache)-hops)
			hops = len(n.routeCache)
		}
	} else if n.cfg.ModelConflict {
		n.routeCache = n.mesh.Route(n.routeCache[:0], from, to)
	}
	st.FlitHops += uint64(flits) * uint64(hops)

	if !n.cfg.ModelConflict {
		return now + engine.Time(hops)*n.cfg.PerHopCycles + engine.Time(flits-1)
	}

	arrive := now
	for _, l := range n.routeCache {
		idx := n.mesh.LinkIndex(l)
		units := flits
		var retryDelay engine.Time
		if degraded {
			extra, delay := inj.LinkRetransmits(arrive, idx, flits)
			units += extra
			retryDelay = delay
		}
		depart := n.linkSrv[idx].Reserve(arrive, units)
		n.linkFlits[idx] += uint64(units)
		arrive = depart + n.cfg.PerHopCycles + retryDelay
	}
	return arrive + engine.Time(flits-1)
}

// Latency estimates the uncontended latency of a message without sending
// it (no counters are charged).
func (n *Network) Latency(from, to int, payloadBytes int) engine.Time {
	if from == to {
		return n.cfg.LocalCycles
	}
	flits := n.Flits(payloadBytes)
	hops := n.mesh.Hops(from, to)
	return engine.Time(hops)*n.cfg.PerHopCycles + engine.Time(flits-1)
}

// Stats returns the per-class traffic counters.
func (n *Network) Stats() [NumClasses]ClassStats { return n.classes }

// TotalFlitHops sums flit-hops across all classes.
func (n *Network) TotalFlitHops() uint64 {
	var total uint64
	for _, c := range n.classes {
		total += c.FlitHops
	}
	return total
}

// Utilization returns the fraction of link-cycles carrying flits over an
// elapsed window — the "NoC Util." dots in Figs 12, 13 and 20.
func (n *Network) Utilization(elapsed engine.Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(n.TotalLinkFlits()) / (float64(n.mesh.NumLinks()) * float64(elapsed))
}

// TotalLinkFlits sums flits over every directed link — the numerator of
// Utilization. Zero when ModelConflict is off (no per-link accounting).
func (n *Network) TotalLinkFlits() uint64 {
	var flits uint64
	for _, f := range n.linkFlits {
		flits += f
	}
	return flits
}

// LinkFlits returns a copy of the per-directed-link flit counts, indexed
// by topo.Mesh.LinkIndex — the per-link heatmap behind Fig 5. Each flit
// traversal of a link is one hop, so this is also the per-link flit·hop
// series. Only populated when ModelConflict is on (the default); the
// fast path skips route enumeration.
func (n *Network) LinkFlits() []uint64 {
	out := make([]uint64, len(n.linkFlits))
	copy(out, n.linkFlits)
	return out
}

// PublishTelemetry publishes per-class traffic scalars and the per-link
// flit heatmap into the registry.
func (n *Network) PublishTelemetry(r *telemetry.Registry) {
	for class, st := range n.classes {
		name := Class(class).String()
		r.Set("noc_"+name+"_messages", st.Messages)
		r.Set("noc_"+name+"_flits", st.Flits)
		r.Set("noc_"+name+"_flit_hops", st.FlitHops)
	}
	r.Set("noc_flit_hops", n.TotalFlitHops())
	r.Set("noc_links", uint64(n.mesh.NumLinks()))
	r.SetSeries("noc_link_flits", n.linkFlits)
}

// ResetStats clears traffic counters while keeping link schedules, so a
// measurement window can exclude warmup.
func (n *Network) ResetStats() {
	n.classes = [NumClasses]ClassStats{}
	for i := range n.linkFlits {
		n.linkFlits[i] = 0
	}
}

// MaxLinkFree reports the latest link schedule horizon — a debugging aid.
func (n *Network) MaxLinkFree() engine.Time {
	var t engine.Time
	for _, s := range n.linkSrv {
		t = engine.MaxTime(t, s.Horizon())
	}
	return t
}
