// Package stream implements the near-stream computing (NSC) substrate of
// §2: streams are long-term access patterns (affine, indirect,
// pointer-chasing) offloaded from the core's stream engine (SEcore) to
// L3-bank stream engines (SEL3), where they access the bank, forward
// elements to dependent streams, perform remote atomics, and migrate
// bank-to-bank following the data.
//
// The model is element/line-granular and throughput-oriented: each stream
// carries a local issue time that advances by occupancy (streams are
// pipelined), while dependencies couple through per-line ready times.
// Shared bank, link and DRAM schedules couple concurrent streams, so load
// imbalance and congestion emerge naturally.
package stream

import (
	"affinityalloc/internal/cache"
	"affinityalloc/internal/engine"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/noc"
	"affinityalloc/internal/telemetry"
)

// Config holds the NSC microarchitecture parameters (Table 2).
type Config struct {
	// ConfigBytes is the size of a stream configuration packet.
	ConfigBytes int
	// MigrateBytes is the size of a stream-migration packet.
	MigrateBytes int
	// RemoteOpBytes is the size of an indirect/atomic request.
	RemoteOpBytes int
	// AckBytes is the size of a response/acknowledgement.
	AckBytes int
	// ComputeInit is the latency to start a near-stream computation on a
	// spare SMT thread (Table 2: 4 cycles).
	ComputeInit engine.Time
	// SIMDLanes is the vector width of near-stream computation.
	SIMDLanes int
	// SMTThreads is the number of spare compute threads per bank.
	SMTThreads int
	// CreditElems is the coarse-grained flow-control granularity: one
	// credit message covers this many elements (§2.2).
	CreditElems int
	// StreamWindow is how many lines one stream may have in flight (its
	// share of the SEL3 element buffer, Table 2: 64kB / 768 streams).
	StreamWindow int
}

// DefaultConfig mirrors Table 2.
func DefaultConfig() Config {
	return Config{
		ConfigBytes:   64,
		MigrateBytes:  24,
		RemoteOpBytes: 16,
		AckBytes:      8,
		ComputeInit:   4,
		SIMDLanes:     16,
		SMTThreads:    2,
		CreditElems:   1024,
		StreamWindow:  8,
	}
}

// AtomicSampler observes each serviced remote atomic with its bank and
// cycle; the Fig-14 occupancy timelines hook in here.
type AtomicSampler func(bank int, at engine.Time)

// Engine is the shared SEL3 infrastructure: per-bank compute-thread
// schedules, stream accounting, and the remote-operation protocol.
type Engine struct {
	cfg Config
	mem *cache.MemSystem
	net *noc.Network

	// computeSrv schedules each bank's spare SMT compute threads.
	computeSrv []*engine.Server

	// Counters for reports and the energy model.
	StreamsConfigured uint64
	Migrations        uint64
	RemoteOps         uint64
	ElementsComputed  uint64

	// Per-bank breakdowns: where remote operations were served and where
	// near-stream elements were computed — the SEL3 load-balance view.
	bankRemoteOps []uint64
	bankElements  []uint64

	// redirect maps each bank to the one that actually hosts its SEL3
	// work — the identity unless fault injection disabled banks, in which
	// case dead banks point at their nearest survivor (see
	// SetBankRedirect). Nil on a clean machine.
	redirect []int
	// FaultRedirects counts operations whose target bank was dead and was
	// redirected to a survivor.
	FaultRedirects uint64

	atomicSampler AtomicSampler

	// obs, when set, observes stream-issue events (offloads and
	// migrations) for the trace recorder. Observation reads nothing back
	// and precedes the NoC send, so recording cannot perturb timing.
	obs IssueObserver
}

// NewEngine builds the shared stream-engine state over a memory system.
func NewEngine(mem *cache.MemSystem, cfg Config) *Engine {
	if cfg.SIMDLanes == 0 {
		cfg = DefaultConfig()
	}
	e := &Engine{
		cfg:           cfg,
		mem:           mem,
		net:           mem.Net(),
		computeSrv:    make([]*engine.Server, mem.Banks()),
		bankRemoteOps: make([]uint64, mem.Banks()),
		bankElements:  make([]uint64, mem.Banks()),
	}
	for i := range e.computeSrv {
		e.computeSrv[i] = engine.NewServer(cfg.SMTThreads, 8, 4096)
	}
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Mem returns the memory system.
func (e *Engine) Mem() *cache.MemSystem { return e.mem }

// SetAtomicSampler installs the Fig-14 observation hook.
func (e *Engine) SetAtomicSampler(s AtomicSampler) { e.atomicSampler = s }

// SetBankRedirect installs a bank-redirect table (len == banks): entry b
// names the bank that serves SEL3 work targeted at b. The system installs
// one when fault injection disables banks, pointing each dead bank at its
// nearest survivor; workload code can then keep addressing the nominal
// placement while the engine lands the work on live hardware.
func (e *Engine) SetBankRedirect(redirect []int) { e.redirect = redirect }

// bankFor resolves a nominal target bank through the redirect table,
// counting redirections.
func (e *Engine) bankFor(b int) int {
	if e.redirect == nil {
		return b
	}
	if r := e.redirect[b]; r != b {
		e.FaultRedirects++
		return r
	}
	return b
}

// IssueObserver receives stream-issue events — offload configuration
// packets and stream-state migrations — the second recording feed of
// internal/trace (accesses themselves are observed at the memory
// system). Banks reported are pre-redirect: a replay under different
// faults re-applies its own redirects.
type IssueObserver interface {
	ObserveOffload(coreTile, firstBank int)
	ObserveMigrate(from, to int)
}

// SetIssueObserver installs (or, with nil, removes) the issue observer.
func (e *Engine) SetIssueObserver(o IssueObserver) { e.obs = o }

// Offload models SEcore sending a stream configuration packet from the
// core's tile to the stream's first bank, returning when the stream may
// begin.
func (e *Engine) Offload(now engine.Time, coreTile, firstBank int) engine.Time {
	if e.obs != nil {
		e.obs.ObserveOffload(coreTile, firstBank)
	}
	e.StreamsConfigured++
	return e.net.Send(now, coreTile, e.bankFor(firstBank), noc.Offload, e.cfg.ConfigBytes)
}

// Migrate models a stream moving its architectural state between banks,
// returning when the stream can proceed at the destination. Used by
// data-dependent streams (pointer chasing), whose next bank is unknown
// until the previous element returns.
func (e *Engine) Migrate(now engine.Time, from, to int) engine.Time {
	if e.obs != nil {
		e.obs.ObserveMigrate(from, to)
	}
	from, to = e.bankFor(from), e.bankFor(to)
	if from == to {
		return now
	}
	e.Migrations++
	return e.net.Send(now, from, to, noc.Offload, e.cfg.MigrateBytes)
}

// MigrateOverlapped models migration of an affine stream, whose next bank
// is statically known: SEL3 configures the destination ahead of time, so
// the move costs traffic but stays off the critical path.
func (e *Engine) MigrateOverlapped(now engine.Time, from, to int) {
	if e.obs != nil {
		e.obs.ObserveMigrate(from, to)
	}
	from, to = e.bankFor(from), e.bankFor(to)
	if from == to {
		return
	}
	e.Migrations++
	e.net.Send(now, from, to, noc.Offload, e.cfg.MigrateBytes)
}

// Credit models the coarse-grained core->stream flow control message.
func (e *Engine) Credit(now engine.Time, coreTile, bank int) engine.Time {
	return e.net.Send(now, coreTile, e.bankFor(bank), noc.Control, e.cfg.AckBytes)
}

// Compute schedules `elems` elements of outlined computation on a spare
// SMT thread at bank, returning completion. The thread is occupied for
// the pipelined duration; the fixed ComputeInit latency (Table 2: 4
// cycles) is added to the result's availability but does not block the
// thread, so back-to-back groups stream through. Threads still serialize
// under load — a hot bank's computations queue, which is how load
// imbalance hurts.
func (e *Engine) Compute(now engine.Time, bank, elems int) engine.Time {
	bank = e.bankFor(bank)
	if elems <= 0 {
		return now
	}
	dur := (elems + e.cfg.SIMDLanes - 1) / e.cfg.SIMDLanes
	start := e.computeSrv[bank].Reserve(now, dur)
	done := start + e.cfg.ComputeInit + engine.Time(dur)
	e.ElementsComputed += uint64(elems)
	e.bankElements[bank] += uint64(elems)
	return done
}

// RemoteOp models an indirect request sent from a stream at fromBank to
// the home bank of va: the request message, the L3 access there, and a
// small ALU operation. When withResponse is set (atomics whose result
// predicates other streams, e.g. CAS), the reply is also modeled and the
// returned time is the response's arrival back at fromBank; otherwise it
// is the remote completion.
func (e *Engine) RemoteOp(now engine.Time, fromBank int, va memsim.Addr, write, withResponse bool) (done engine.Time, homeBank int) {
	homeBank = e.mem.BankOf(va)
	t := now
	if homeBank != fromBank {
		t = e.net.Send(t, fromBank, homeBank, noc.Control, e.cfg.RemoteOpBytes)
	}
	t, _ = e.mem.AccessAt(t, homeBank, va, write)
	t++ // the SEL3 ALU op itself
	if e.atomicSampler != nil {
		e.atomicSampler(homeBank, t)
	}
	if withResponse && homeBank != fromBank {
		t = e.net.Send(t, homeBank, fromBank, noc.Control, e.cfg.AckBytes)
	}
	e.RemoteOps++
	e.bankRemoteOps[homeBank]++
	return t, homeBank
}

// Forward models element data forwarded between dependent streams
// (e.g. a load stream feeding a compute/store stream at another bank).
func (e *Engine) Forward(now engine.Time, from, to int, bytes int) engine.Time {
	from, to = e.bankFor(from), e.bankFor(to)
	if from == to {
		return now
	}
	return e.net.Send(now, from, to, noc.Data, bytes)
}

// PublishTelemetry publishes the stream-engine op breakdown (scalars)
// and the per-bank remote-op / computed-element series into the registry.
func (e *Engine) PublishTelemetry(r *telemetry.Registry) {
	r.Set("se_streams_configured", e.StreamsConfigured)
	r.Set("se_migrations", e.Migrations)
	r.Set("se_remote_ops", e.RemoteOps)
	r.Set("se_elements_computed", e.ElementsComputed)
	r.SetSeries("se_bank_remote_ops", e.bankRemoteOps)
	r.SetSeries("se_bank_elements", e.bankElements)
	if e.redirect != nil {
		// Published only on degraded machines, so clean runs' metrics
		// documents carry no fault-related keys.
		r.Set("se_fault_redirects", e.FaultRedirects)
	}
}

// MaxComputeFree reports the latest compute schedule horizon — a
// debugging aid.
func (e *Engine) MaxComputeFree() engine.Time {
	var t engine.Time
	for _, s := range e.computeSrv {
		t = engine.MaxTime(t, s.Horizon())
	}
	return t
}

// OpWindow bounds a stream's outstanding indirect operations — the
// SEL3's per-stream request buffer. Remote operations throttle to
// window/RTT, which is exactly how distance converts to throughput loss
// for indirect-heavy streams (and why placing targets locally pays).
type OpWindow struct {
	slots []engine.Time
	idx   int
}

// NewOpWindow builds a window of k outstanding operations.
func NewOpWindow(k int) *OpWindow {
	if k < 1 {
		k = 1
	}
	return &OpWindow{slots: make([]engine.Time, k)}
}

// Issue returns the earliest cycle a new operation may start at or after
// `at`, once the oldest outstanding operation has drained.
func (w *OpWindow) Issue(at engine.Time) engine.Time {
	return engine.MaxTime(at, w.slots[w.idx])
}

// Complete records the operation's completion, consuming the slot.
func (w *OpWindow) Complete(done engine.Time) {
	w.slots[w.idx] = done
	w.idx = (w.idx + 1) % len(w.slots)
}
