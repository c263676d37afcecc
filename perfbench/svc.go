package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"affinityalloc/internal/affinityd"
	"affinityalloc/internal/telemetry"
)

// svc-churn sizing.
const (
	svcBatches         = 24  // stream alloc batches per tenant lifetime
	svcBatchReqs       = 16  // requests per alloc batch
	svcLive            = 64  // live stream allocations a tenant keeps after each free
	svcDegradedEvery   = 4   // every 4th lifetime of client 0 runs on a degraded machine
	svcJournalMachines = 2   // machines the untimed phase journals
	svcJournalBatches  = 500 // alloc batches per journaled machine (≈ 2k records in all)
	svcSliceLifetimes  = 4   // lifetimes per client between two calibrations
)

// runSvcChurn serves seeded tenant churn from an in-process affinityd
// server on a loopback listener, journal on and fsync off. Each of nproc
// closed-loop clients is one tenant at a time: it registers a machine,
// runs the fault reproducer and svcBatches alloc batches each followed by
// frees, and deregisters; then a new tenant takes its place. A round is
// one tenant lifetime per client. The timed phase runs in slices of
// svcSliceLifetimes rounds, with the calibration kernel (calib.go)
// between them while the clients wait.
func runSvcChurn(e env) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	nclients := runtime.NumCPU()
	dir, err := os.MkdirTemp(e.scratch, "svc-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	// Untimed: journal a few machines' streams, keeping what each
	// committed.
	committed, liveBytes, err := writeJournal(ctx, e.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("journal phase: %w", err)
	}

	// Set-up: a new server recovers the journal, starts serving and
	// registers the first tenants. It is timed setupReps times; all but
	// the last are torn down again.
	var (
		svc      *service
		first    []*tenant
		recovers []float64
		setups   = newHostClock(e.cal, false)
	)
	setups.calibrate()
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		s, recoverT, err := startService(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		first = first[:0]
		for c := 0; c < nclients; c++ {
			t, err := newTenant(ctx, s.client(), e.seed, c, 0)
			if err != nil {
				s.stop()
				return nil, fmt.Errorf("set-up: %w", err)
			}
			first = append(first, t)
		}
		setups.unit(time.Since(start))
		setups.calibrate()
		recovers = append(recovers, recoverT.Seconds())
		if i == setupReps-1 {
			svc = s
			break
		}
		for _, t := range first {
			if err := t.c.Deregister(ctx, t.id); err != nil {
				s.stop()
				return nil, err
			}
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	rep.metrics["setup_s"] = median(setups.normalized())
	defer svc.stop()

	for id, want := range committed {
		got, err := svc.client().MachineInfo(ctx, id)
		if err != nil {
			return nil, err
		}
		rep.check(reflect.DeepEqual(got, want), "recovered-machine-info", "%s: recovered %+v, committed %+v", id, got, want)
	}

	// Timed phase.
	var (
		stats   [2]churnStats // plain, traced
		clocks  [2]*hostClock
		slices  []churnStats // the plain phase's, one per slice
		metrics [2]*telemetry.Document
		log     = &lifetimeLog{}
	)
	hostS, gcA, gcB, err := runPhases(e, func(traced bool, budget time.Duration) error {
		ph, clk := 0, newHostClock(e.cal, false)
		var err error
		if traced {
			ph = 1
			if metrics[0], err = svc.client().Metrics(ctx); err != nil {
				return err
			}
		}
		clocks[ph] = clk
		// Lifetime numbers continue across phases so that every tenant
		// gets its own stream.
		for start, next := time.Now(), 0; next == 0 || time.Since(start) < budget; next += svcSliceLifetimes {
			clk.calibrate()
			t0 := time.Now()
			cs := make([]churnStats, nclients)
			errs := make([]error, nclients)
			var wg sync.WaitGroup
			for c := 0; c < nclients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					var pre *tenant
					var l *lifetimeLog
					if next == 0 && !traced {
						pre = first[c]
						if c == 0 {
							l = log
						}
					}
					errs[c] = churn(ctx, svc.client(), e.seed, c, ph*1_000_000+next, svcSliceLifetimes, pre, l, &cs[c])
				}(c)
			}
			wg.Wait()
			clk.unit(time.Since(t0))
			if err := errors.Join(errs...); err != nil {
				return err
			}
			var slice churnStats
			for c := range cs {
				slice.merge(&cs[c])
			}
			stats[ph].merge(&slice)
			if !traced {
				slices = append(slices, slice)
			}
		}
		clk.calibrate()
		if traced {
			if metrics[1], err = svc.client().Metrics(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var probe churnStats
	heapMB, err := probeHeap(ctx, svc.client(), e.seed, nclients, &probe)
	if err != nil {
		return nil, fmt.Errorf("heap probe: %w", err)
	}
	for _, st := range append(stats[:], probe) {
		rep.attempted += st.ops
		rep.failed += st.failed
		rep.failures = append(rep.failures, st.failures...)
	}

	// One lifetime replayed through the library gives the same placements.
	lib, newT, err := replayLibrary(log)
	if err != nil {
		return nil, fmt.Errorf("library replay: %w", err)
	}
	rep.check(reflect.DeepEqual(lib, log.placements), "library-replay-identical",
		"%s: %d placements via the service differ from %d via sys.System", log.spec.Faults, len(log.placements), len(lib))

	rounds := func(ph int) float64 { return float64(stats[ph].lifetimes) / float64(nclients) }
	// perRound is a phase's median slice at the reference host speed,
	// per round.
	perRound := func(ph int) float64 { return median(clocks[ph].normalized()) / svcSliceLifetimes }
	if !e.traced {
		// Each slice's wall, rate and lifetimes at the reference host
		// speed; the metrics are medians over the slices.
		clk := clocks[0]
		norm := clk.normalized()
		var rates, lifetimes []float64
		for k, sl := range slices {
			rates = append(rates, float64(sl.places.placed)/norm[k])
			for _, l := range sl.lifetimeMs {
				lifetimes = append(lifetimes, l*clk.factor(k))
			}
		}
		fmt.Printf("svc-churn: %d slices of %d rounds, calibration p50 %.2f ms\n", len(slices), svcSliceLifetimes, clk.calibMedian())
		rep.metrics["heap_peak_mb"] = heapMB
		rep.metrics["wall_s"] = perRound(0)
		rep.metrics["cell_p50_ms"] = median(lifetimes)
		rep.metrics["place_per_s"] = median(rates)
		return rep, nil
	}
	st := stats[1]
	for l, v := range hostS {
		rep.metrics[l+".host_s"] = v / rounds(1)
	}
	gcA.put(rep, gcB, rounds(1))
	rep.metrics["bench.trace_overhead_s"] = perRound(1) - perRound(0)
	rep.metrics["bench.calib_ms"] = clocks[0].calibMedian()
	rep.metrics["sys.new_ms"] = ms(newT)
	rep.metrics["affinityd.register_ms"] = median(st.registerMs)
	rep.metrics["affinityd.free_ms"] = median(st.freeMs)
	rep.metrics["affinityd.recover_s"] = median(recovers)
	rep.metrics["batch_p50_ms"] = median(st.batchMs)
	rep.metrics["affinityd.batch_p99_ms"] = quantile(st.batchMs, 0.99)
	rep.metrics["affinityd.batch_samples"] = float64(len(st.batchMs))
	req, place := histDelta(metrics[0], metrics[1], "request_latency_ns"), histDelta(metrics[0], metrics[1], "placement_latency_ns")
	rep.metrics["affinityd.server_request_p50_ms"] = float64(telemetry.HistQuantile(req, 0.5)) / 1e6
	rep.metrics["affinityd.placement_p50_us"] = float64(telemetry.HistQuantile(place, 0.5)) / 1e3
	rep.metrics["affinityd.placements"] = float64(st.places.placed)
	rep.metrics["affinityd.frees"] = float64(st.frees)
	rep.metrics["affinityd.tenants"] = float64(st.lifetimes)
	rep.metrics["core.affinity_ratio"] = st.places.affinityRatio()
	if live := liveBytes + float64(nclients)*st.liveBytesPeak; live > 0 {
		rep.metrics["affinityd.heap_per_live_mb"] = heapMB / (live / bytesPerMB)
	}
	return rep, nil
}

// probeHeap has every client's next tenant run one lifetime and stay
// registered, then forces a GC cycle and returns the live heap in MB: the
// recovered machines and one tenant per client at its fullest, measured
// independently of when the collector happens to run.
func probeHeap(ctx context.Context, c *affinityd.Client, seed int64, nclients int, st *churnStats) (float64, error) {
	var ts []*tenant
	for client := 0; client < nclients; client++ {
		t, err := newTenant(ctx, c, seed, client, 2_000_000)
		if err != nil {
			return 0, err
		}
		ts = append(ts, t)
		if err := t.run(ctx, st, nil); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	peak := readRuntime(mHeapLive)[0] / bytesPerMB
	for _, t := range ts {
		if err := c.Deregister(ctx, t.id); err != nil {
			return 0, fmt.Errorf("deregister: %w", err)
		}
		st.ops += 2 // register, deregister
	}
	return peak, nil
}

// histDelta returns the server-cell histogram series name as counted
// between two metrics documents.
func histDelta(a, b *telemetry.Document, name string) []uint64 {
	series := func(d *telemetry.Document) []uint64 {
		for _, c := range d.Cells {
			if c.Label == "affinityd" {
				return c.Series[name]
			}
		}
		return nil
	}
	x, y := series(a), series(b)
	out := make([]uint64, len(y))
	for i := range y {
		out[i] = y[i]
		if i < len(x) {
			out[i] -= x[i]
		}
	}
	return out
}

// service is an affinityd server on a loopback listener.
type service struct {
	srv    *affinityd.Server
	hs     *http.Server
	url    string
	served chan error
}

// startService builds a server over the journal directory, recovers it,
// serves it on a loopback port and waits until it reports ready. It
// returns how long recovery took.
func startService(dir string) (*service, time.Duration, error) {
	srv := affinityd.NewServer(affinityd.Options{JournalDir: dir})
	start := time.Now()
	if _, err := srv.Recover(); err != nil {
		srv.Close()
		return nil, 0, fmt.Errorf("recover: %w", err)
	}
	recoverT := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	for !s.client().Ready(context.Background()) {
		time.Sleep(time.Millisecond)
	}
	return s, recoverT, nil
}

func (s *service) client() *affinityd.Client { return affinityd.NewClient(s.url) }

// stop shuts the listener down, waits for the serving goroutine and
// stops the machines. It is safe to call more than once.
func (s *service) stop() error {
	if s.served == nil {
		return nil
	}
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.served = nil
	s.srv.Close()
	return err
}

// writeJournal runs svcJournalMachines seeded streams against a server
// journaling into dir and returns each machine's final MachineInfo and
// the simulated bytes the machines hold live.
func writeJournal(ctx context.Context, seed int64, dir string) (map[string]affinityd.MachineInfoResponse, float64, error) {
	s, _, err := startService(dir)
	if err != nil {
		return nil, 0, err
	}
	defer s.stop()
	c := s.client()
	out := map[string]affinityd.MachineInfoResponse{}
	var live float64
	for m := 0; m < svcJournalMachines; m++ {
		reg, err := c.Register(ctx, affinityd.MachineSpec{Seed: seed*7919 + int64(m) + 1})
		if err != nil {
			return nil, 0, err
		}
		gen := newTenantGen(seed*104729+int64(m), fmt.Sprintf("j%d", m))
		sizes := map[string]float64{}
		for b := 0; b < svcJournalBatches; b++ {
			reqs := gen.batch(svcBatchReqs)
			resp, err := c.Alloc(ctx, reg.MachineID, fmt.Sprintf("j%d-a%d", m, b), reqs)
			if err != nil {
				return nil, 0, err
			}
			for _, p := range resp.Placements {
				sizes[p.ID] = float64(p.ElemStride) * float64(p.NumElem)
			}
			if ids := gen.frees(svcLive); len(ids) > 0 {
				if _, err := c.Free(ctx, reg.MachineID, fmt.Sprintf("j%d-f%d", m, b), ids); err != nil {
					return nil, 0, err
				}
				for _, id := range ids {
					delete(sizes, id)
				}
			}
		}
		for _, v := range sizes {
			live += v
		}
		if out[reg.MachineID], err = c.MachineInfo(ctx, reg.MachineID); err != nil {
			return nil, 0, err
		}
	}
	return out, live, s.stop()
}

// churnStats is one client's (or, merged, all clients') account of a
// phase.
type churnStats struct {
	lifetimes     int
	ops, failed   int64
	frees         int64
	places        placeCount
	lifetimeMs    []float64
	batchMs       []float64
	registerMs    []float64
	freeMs        []float64
	liveBytesPeak float64
	failures      []string
}

func (s *churnStats) merge(o *churnStats) {
	s.lifetimes += o.lifetimes
	s.ops += o.ops
	s.failed += o.failed
	s.frees += o.frees
	s.places.add(o.places)
	s.lifetimeMs = append(s.lifetimeMs, o.lifetimeMs...)
	s.batchMs = append(s.batchMs, o.batchMs...)
	s.registerMs = append(s.registerMs, o.registerMs...)
	s.freeMs = append(s.freeMs, o.freeMs...)
	s.liveBytesPeak = max(s.liveBytesPeak, o.liveBytesPeak)
	s.failures = append(s.failures, o.failures...)
}

func (s *churnStats) check(ok bool, name, format string, args ...any) {
	if !ok {
		s.failures = append(s.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// tenant is one registered machine and what the client knows of it.
type tenant struct {
	c       *affinityd.Client
	id      string
	spec    affinityd.MachineSpec
	dead    map[int]bool
	gen     *tenantGen
	live    map[string]affinityd.Placement
	regTime time.Duration
	start   time.Time
}

// newTenant registers lifetime n of client c. Client 0's every
// svcDegradedEvery-th tenant gets a machine with two dead banks.
func newTenant(ctx context.Context, c *affinityd.Client, seed int64, client, n int) (*tenant, error) {
	tseed := seed*1000003 + int64(client)*7919 + int64(n) + 1
	spec := affinityd.MachineSpec{Seed: tseed}
	if client == 0 && n%svcDegradedEvery == 0 {
		spec.Faults = fmt.Sprintf("seed=%d,dead-banks=2", tseed)
	}
	start := time.Now()
	reg, err := c.Register(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	t := &tenant{
		c: c, id: reg.MachineID, spec: spec, dead: map[int]bool{},
		gen:     newTenantGen(tseed, fmt.Sprintf("c%d-t%d", client, n)),
		live:    map[string]affinityd.Placement{},
		regTime: time.Since(start), start: start,
	}
	for _, b := range reg.DeadBanks {
		t.dead[b] = true
	}
	return t, nil
}

// churn runs count tenant lifetimes of client c, numbered from first.
// pre, when set, is the client's already registered first tenant; log,
// when set, records the first lifetime.
func churn(ctx context.Context, c *affinityd.Client, seed int64, client, first, count int, pre *tenant, log *lifetimeLog, st *churnStats) error {
	for n := first; n < first+count; n++ {
		t := pre
		if t == nil || n > first {
			var err error
			if t, err = newTenant(ctx, c, seed, client, n); err != nil {
				return err
			}
		} else {
			// Registered during set-up: its lifetime starts now, plus
			// the registration it already made.
			t.start = time.Now().Add(-t.regTime)
		}
		st.registerMs = append(st.registerMs, ms(t.regTime))
		if err := t.run(ctx, st, log); err != nil {
			return err
		}
		log = nil
		if err := c.Deregister(ctx, t.id); err != nil {
			return fmt.Errorf("deregister: %w", err)
		}
		st.ops += 2 // register, deregister
		st.lifetimes++
		st.lifetimeMs = append(st.lifetimeMs, ms(time.Since(t.start)))
	}
	return nil
}

// run issues the tenant's lifetime: the fault reproducer, then the
// stream's alloc and free batches, checking every answer.
func (t *tenant) run(ctx context.Context, st *churnStats, log *lifetimeLog) error {
	if log != nil {
		log.spec = t.spec
	}
	var liveBytes float64
	for b := -1; b < svcBatches; b++ {
		reqs := fixtureBatch()
		if b >= 0 {
			reqs = t.gen.batch(svcBatchReqs)
		}
		start := time.Now()
		resp, err := t.c.Alloc(ctx, t.id, fmt.Sprintf("a%d", b), reqs)
		if err != nil {
			return fmt.Errorf("alloc batch: %w", err)
		}
		if b >= 0 {
			st.batchMs = append(st.batchMs, ms(time.Since(start)))
		}
		st.ops += int64(len(reqs))
		if len(resp.Placements) != len(reqs) {
			st.check(false, "placements-per-request", "%d placements for %d requests", len(resp.Placements), len(reqs))
			continue
		}
		for i, p := range resp.Placements {
			liveBytes += t.accept(st, reqs[i], p)
		}
		var ids []string
		if b >= 0 {
			ids = t.gen.frees(svcLive)
		}
		if log != nil {
			log.steps = append(log.steps, logStep{allocs: reqs, frees: ids})
			log.placements = append(log.placements, resp.Placements...)
		}
		st.liveBytesPeak = max(st.liveBytesPeak, liveBytes)
		if len(ids) == 0 {
			continue
		}
		start = time.Now()
		fr, err := t.c.Free(ctx, t.id, fmt.Sprintf("f%d", b), ids)
		if err != nil {
			return fmt.Errorf("free batch: %w", err)
		}
		st.freeMs = append(st.freeMs, ms(time.Since(start)))
		st.ops += int64(len(ids))
		for _, r := range fr.Results {
			if r.Error != "" {
				st.failed++
				continue
			}
			p := t.live[r.ID]
			liveBytes -= float64(p.ElemStride) * float64(p.NumElem)
			delete(t.live, r.ID)
			st.frees++
		}
	}
	return nil
}

// accept checks one placement and adds it to the tenant's live set,
// returning its size in bytes. A failed placement counts as a failed
// operation, not as a wrong answer.
func (t *tenant) accept(st *churnStats, req affinityd.AllocRequest, p affinityd.Placement) float64 {
	aff := req.Mode == "" // an Aff-Alloc request
	if aff {
		st.places.affTried++
	}
	if p.Error != "" {
		st.failed++
		return 0
	}
	if aff && p.Interleave > 0 {
		st.places.affPooled++
	}
	st.places.placed++
	st.check(p.ID == req.ID, "placement-id", "placement %q answers request %q", p.ID, req.ID)

	lo := p.Base
	hi := lo + uint64(p.ElemStride)*uint64(p.NumElem)
	for id, q := range t.live {
		qlo := q.Base
		qhi := qlo + uint64(q.ElemStride)*uint64(q.NumElem)
		st.check(hi <= qlo || qhi <= lo, "no-overlap", "%s [%#x,%#x) overlaps live %s [%#x,%#x)", p.ID, lo, hi, id, qlo, qhi)
	}
	for _, b := range p.Banks {
		st.check(!t.dead[b], "no-dead-bank", "%s placed on dead bank %d (machine faults %q)", p.ID, b, t.spec.Faults)
	}
	// Plain alignment is checked on clean machines only: on a degraded
	// one the runtime phases an aligned array from the survivor bank its
	// target's element was remapped to (see README.md, "Faults the
	// benchmark counts or found").
	if target, ok := t.live[req.AlignTo]; ok && req.AlignP == 0 && req.AlignQ == 0 && req.AlignX == 0 &&
		p.Interleave > 0 && target.Interleave > 0 && len(t.dead) == 0 {
		st.check(reflect.DeepEqual(p.Banks, target.Banks), "align-to-same-banks",
			"%s banks %v, its align_to target %s banks %v", p.ID, p.Banks, req.AlignTo, target.Banks)
	}
	t.live[p.ID] = p
	return float64(hi - lo)
}
