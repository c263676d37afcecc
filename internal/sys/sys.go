// Package sys assembles the full simulated system of Table 2 — mesh,
// address space, NoC, banked L3 + DRAM, cores, stream engines, and the
// affinity-allocation runtime — and collects the metrics the evaluation
// reports (cycles, per-class NoC traffic, L3 miss rate, energy).
package sys

import (
	"affinityalloc/internal/cache"
	"affinityalloc/internal/core"
	"affinityalloc/internal/cpu"
	"affinityalloc/internal/energy"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/stream"
	"affinityalloc/internal/telemetry"
	"affinityalloc/internal/topo"
)

// Config parameterizes a system build.
type Config struct {
	MeshW, MeshH int
	Numbering    topo.Numbering
	Mem          memsim.Config
	NoC          noc.Config
	MemSys       cache.MemSysConfig
	Core         cpu.Config
	Stream       stream.Config
	Policy       core.PolicyConfig
	Energy       energy.Params
	Seed         int64
	// Faults degrades the machine before assembly: dead L3 banks (their
	// sets remap to survivors, which the allocation layer observes), dead
	// or lossy NoC links, and throttled DRAM channels. The zero value
	// injects nothing and leaves every fast path untouched.
	Faults faults.Spec
	// Realloc enables the online reconciler: every Realloc.Epoch
	// sim-cycles it closes an epoch, plans hot-chunk migrations from
	// EWMA-smoothed bank occupancy, and applies them as modeled NoC
	// traffic plus address-space overrides. The zero value
	// disables it and leaves every fast path untouched.
	Realloc realloc.Config
}

// DefaultConfig mirrors Table 2: an 8x8 mesh of cores with 64 L3 banks.
// The conventional heap uses randomized physical page placement — the
// affinity-oblivious layout a long-running OS gives malloc'd data, and
// what the Near-L3 and In-Core baselines run on.
func DefaultConfig() Config {
	mem := memsim.DefaultConfig()
	mem.HeapLayout = memsim.HeapRandom
	return Config{
		MeshW:     8,
		MeshH:     8,
		Numbering: topo.RowMajor,
		Mem:       mem,
		NoC:       noc.DefaultConfig(),
		MemSys:    cache.DefaultMemSysConfig(),
		Core:      cpu.DefaultConfig(),
		Stream:    stream.DefaultConfig(),
		Policy:    core.DefaultPolicy(),
		Energy:    energy.DefaultParams(),
		Seed:      1,
	}
}

// System is one assembled machine instance. Build a fresh System per
// workload run; state (caches, link schedules) is intentionally carried
// within a run and discarded across runs.
type System struct {
	Cfg   Config
	Mesh  *topo.Mesh
	Space *memsim.Space
	Net   *noc.Network
	Mem   *cache.MemSystem
	Coh   *cpu.Coherence
	Cores []*cpu.Core
	SE    *stream.Engine
	RT    *core.Runtime
	// Faults is the resolved fault injector; nil on a clean machine.
	Faults *faults.Injector
	// Realloc is the online reconciler; nil unless Config.Realloc is
	// enabled.
	Realloc *realloc.Reconciler

	// spans are the sim-time phases recorded via MarkPhase.
	spans []telemetry.Span
}

// New builds a system. The configuration is validated first, so
// assembly errors carry actionable messages (see Config.Validate).
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mesh, err := topo.NewMesh(cfg.MeshW, cfg.MeshH, cfg.Numbering)
	if err != nil {
		return nil, err
	}
	// Resolve the fault spec against the real geometry before anything is
	// assembled, so every component below builds against the degraded
	// machine: the space remaps dead banks, the NoC routes around dead
	// links, the memory system throttles faulted DRAM channels.
	var inj *faults.Injector
	if !cfg.Faults.Empty() {
		inj, err = faults.New(cfg.Faults, mesh, len(mesh.MemControllers()))
		if err != nil {
			return nil, err
		}
		cfg.Mem.DeadBanks = inj.DeadBankList()
		cfg.NoC.Faults = inj
		cfg.MemSys.Faults = inj
	}
	cfg.Mem.Banks = mesh.Banks()
	cfg.Mem.Seed = cfg.Seed
	space, err := memsim.NewSpace(cfg.Mem)
	if err != nil {
		return nil, err
	}
	net := noc.New(mesh, cfg.NoC)
	mem, err := cache.NewMemSystem(space, net, cfg.MemSys)
	if err != nil {
		return nil, err
	}
	coh := cpu.NewCoherence()
	cores := make([]*cpu.Core, mesh.Banks())
	for i := range cores {
		c, err := cpu.NewCore(i, mem, coh, cfg.Core)
		if err != nil {
			return nil, err
		}
		cores[i] = c
	}
	se := stream.NewEngine(mem, cfg.Stream)
	if inj != nil && len(inj.DeadBankList()) > 0 {
		// Dead banks host no SEL3 work: point each at its nearest
		// survivor so nominal placements keep running.
		redirect := make([]int, mesh.Banks())
		for b := range redirect {
			redirect[b] = inj.NearestAlive(b)
		}
		se.SetBankRedirect(redirect)
	}
	rt, err := core.New(space, mesh, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var rec *realloc.Reconciler
	if cfg.Realloc.Enabled() {
		rec = realloc.NewReconciler(cfg.Realloc, space, mesh, mem, rt)
		mem.SetAccessHook(rec.OnAccess)
	}
	if inj != nil && len(inj.BankKills()) > 0 {
		// Arm the mid-run kills. When one fires the space has already
		// remapped the bank; the injector's bookkeeping and the stream
		// engine's dead-bank redirect catch up here. The reconciler needs
		// no notification — its next epoch observes the dead bank and
		// re-homes stranded granules.
		mem.SetBankKills(inj.BankKills(), func(at engine.Time, b int) {
			inj.NoteBankKill(at, b)
			redirect := make([]int, mesh.Banks())
			for i := range redirect {
				redirect[i] = inj.NearestAlive(i)
			}
			se.SetBankRedirect(redirect)
		})
	}
	return &System{
		Cfg:     cfg,
		Mesh:    mesh,
		Space:   space,
		Net:     net,
		Mem:     mem,
		Coh:     coh,
		Cores:   cores,
		SE:      se,
		RT:      rt,
		Faults:  inj,
		Realloc: rec,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCores returns the core count (== banks).
func (s *System) NumCores() int { return len(s.Cores) }

// Alloc allocates per the mode: affinity-aware specs in AffAlloc, the
// baseline allocator otherwise. It lets workload code state its affinity
// intent once and run under every configuration.
func (s *System) Alloc(mode Mode, spec core.AffineSpec) (*core.ArrayInfo, error) {
	if mode == AffAlloc {
		return s.RT.AllocAffine(spec)
	}
	base, err := s.RT.AllocBase(int64(spec.ElemSize) * spec.NumElem)
	if err != nil {
		return nil, err
	}
	return &core.ArrayInfo{
		Base:       base,
		ElemSize:   spec.ElemSize,
		ElemStride: spec.ElemSize,
		NumElem:    spec.NumElem,
	}, nil
}

// PreloadArray warms an affine array into the L3 (see cache.Preload).
func (s *System) PreloadArray(a *core.ArrayInfo) {
	s.Mem.Preload(a.Base, a.Bytes())
}

// MarkPhase records a named sim-time phase (e.g. one BFS iteration) for
// the Chrome-trace exporter. Phases are carried through Collect into
// Metrics.Detail.Spans.
func (s *System) MarkPhase(name, cat string, start, end engine.Time) {
	if end < start {
		start, end = end, start
	}
	s.spans = append(s.spans, telemetry.Span{
		Name: name, Cat: cat, Start: uint64(start), Dur: uint64(end - start),
	})
}

// Metrics is what one run reports. Every stored field is a raw count —
// derived values (miss rates, utilization, energy totals) are methods —
// and the JSON tags are the stable snake_case metrics schema.
type Metrics struct {
	Cycles   engine.Time                    `json:"cycles"`
	Traffic  [noc.NumClasses]noc.ClassStats `json:"traffic_by_class"`
	FlitHops uint64                         `json:"noc_flit_hops"`
	// LinkFlits counts flits through directed links (the utilization
	// numerator); Links is the directed-link count (its denominator).
	LinkFlits    uint64           `json:"noc_link_flits"`
	Links        int              `json:"noc_links"`
	L3Accesses   uint64           `json:"l3_accesses"`
	L3Misses     uint64           `json:"l3_misses"`
	DRAMAccesses uint64           `json:"dram_accesses"`
	Energy       energy.Breakdown `json:"energy"`
	// Detail is the full per-tile telemetry snapshot (per-link flits,
	// per-bank L3 balance, per-core activity, DRAM channel queues).
	Detail *telemetry.Snapshot `json:"detail,omitempty"`
}

// L3MissRate returns misses/accesses, or 0 before any access.
func (m Metrics) L3MissRate() float64 {
	if m.L3Accesses == 0 {
		return 0
	}
	return float64(m.L3Misses) / float64(m.L3Accesses)
}

// NoCUtil returns the fraction of link-cycles carrying flits over the
// run — the "NoC Util." dots in Figs 12, 13 and 20.
func (m Metrics) NoCUtil() float64 {
	if m.Cycles == 0 || m.Links == 0 {
		return 0
	}
	return float64(m.LinkFlits) / (float64(m.Links) * float64(m.Cycles))
}

// EnergyTotal sums the energy breakdown.
func (m Metrics) EnergyTotal() float64 { return m.Energy.Total() }

// Telemetry builds the run's full telemetry snapshot at the finish
// cycle: every component publishes its counters and per-tile series into
// a fresh registry, and recorded phases become trace spans.
func (s *System) Telemetry(finish engine.Time) *telemetry.Snapshot {
	r := telemetry.NewRegistry()
	r.Set("cycles", uint64(finish))
	s.Net.PublishTelemetry(r)
	s.Mem.PublishTelemetry(r)
	s.SE.PublishTelemetry(r)
	cpu.PublishCores(r, s.Cores, finish)
	if s.Faults != nil {
		// Fault counters exist only on degraded machines, keeping clean
		// runs' metrics documents byte-identical to fault-free builds.
		s.Faults.PublishTelemetry(r)
		r.Set("fault_bank_remapped_accesses", s.Space.RemappedAccesses)
	}
	if s.Realloc != nil {
		// Same gating pattern: the realloc_* keys appear only when a
		// migration (or a cost/benefit rejection) actually happened, so
		// an armed-but-idle reconciler publishes nothing.
		s.Realloc.PublishTelemetry(r)
	}
	for _, sp := range s.spans {
		r.AddSpan(sp)
	}
	return r.Snapshot()
}

// Collect gathers metrics at a run's finish cycle. It is built on the
// telemetry registry: the components publish raw counters, and Metrics
// reads its aggregates back out of the snapshot it keeps in Detail.
func (s *System) Collect(finish engine.Time) Metrics {
	snap := s.Telemetry(finish)
	m := Metrics{
		Cycles:       finish,
		Traffic:      s.Net.Stats(),
		FlitHops:     snap.Scalar("noc_flit_hops"),
		LinkFlits:    snap.Scalar("noc_link_flits_total"),
		Links:        int(snap.Scalar("noc_links")),
		L3Accesses:   snap.Scalar("l3_bank_accesses_total"),
		L3Misses:     snap.Scalar("l3_bank_misses_total"),
		DRAMAccesses: snap.Scalar("dram_chan_reads_total") + snap.Scalar("dram_chan_writes_total"),
		Detail:       snap,
	}
	counts := energy.Counts{
		CoreActiveCycles: snap.Scalar("core_active_cycles_total"),
		ALUOps:           snap.Scalar("core_alu_ops_total"),
		SIMDOps:          snap.Scalar("core_simd_ops_total"),
		L1Accesses:       snap.Scalar("core_l1_accesses_total"),
		L2Accesses:       snap.Scalar("core_l2_accesses_total"),
		L3Accesses:       m.L3Accesses,
		DRAMAccesses:     m.DRAMAccesses,
		NoCFlitHops:      m.FlitHops,
		SEL3Ops: snap.Scalar("se_elements_computed") +
			snap.Scalar("se_remote_ops") + snap.Scalar("se_migrations"),
		ElapsedCycles: uint64(finish),
		Routers:       s.Mesh.Banks(),
		Banks:         s.Mesh.Banks(),
	}
	m.Energy = energy.Estimate(counts, s.Cfg.Energy)
	return m
}

// DataHops returns the per-class flit-hop counts as a convenience triple
// (data, control, offload).
func (m Metrics) DataHops() (data, control, offload uint64) {
	return m.Traffic[noc.Data].FlitHops, m.Traffic[noc.Control].FlitHops, m.Traffic[noc.Offload].FlitHops
}
