package main

import (
	"fmt"
	"math/rand"
	"time"

	"affinityalloc/internal/affinityd"
	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/memsim"
	"affinityalloc/internal/sys"
)

// probeElems are the elements every affine or baseline request asks the
// bank of. They are below the smallest array (1024 elements), so no
// probe is clamped and element k of an aligned array can be compared
// with element k of its target.
var probeElems = []int64{0, 1, 100, 513, 1023}

// tenantGen generates one tenant's seeded request stream: batches of
// allocations that mix affine Aff-Alloc requests (roots, and requests
// aligned to a root: plain, with a 1:2 index ratio, or with an element
// offset), near requests with affinity edges into live affine arrays,
// and baseline-mode requests; then frees that bring the live set back
// to svcLive allocations.
//
// Near requests use 512 B to 2 KiB chunks, interleaves no affine request
// of the stream can get (aligning only to roots bounds those at
// 64–256 B). Near allocation shares a pool with affine extents only in
// the fixed fault reproducer (see fixtureBatch), so the stream's own
// requests never meet the near-allocation refill fault and fail on no
// seed.
type tenantGen struct {
	prefix string
	rng    *rand.Rand
	next   int
	live   []liveAlloc // in allocation order
}

type liveAlloc struct {
	id      string
	numElem int64
	affine  bool // an Aff-Alloc affine array: a valid affinity target
	root    bool // placed with no affinity: a valid align_to target
}

func newTenantGen(seed int64, prefix string) *tenantGen {
	return &tenantGen{prefix: prefix, rng: rand.New(rand.NewSource(seed))}
}

// batch returns the next n allocation requests.
func (g *tenantGen) batch(n int) []affinityd.AllocRequest {
	reqs := make([]affinityd.AllocRequest, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.request())
	}
	return reqs
}

func (g *tenantGen) request() affinityd.AllocRequest {
	id := fmt.Sprintf("%s-r%d", g.prefix, g.next)
	g.next++
	var affine, roots []liveAlloc
	for _, l := range g.live {
		if l.affine {
			affine = append(affine, l)
			if l.root {
				roots = append(roots, l)
			}
		}
	}
	req := affinityd.AllocRequest{
		ID:        id,
		ElemSize:  4 << g.rng.Intn(2),
		NumElem:   1024 << g.rng.Intn(4),
		BankProbe: probeElems,
	}
	la := liveAlloc{id: id, numElem: req.NumElem}
	switch p := g.rng.Float64(); {
	case p < 0.20 && len(affine) > 0:
		req = affinityd.AllocRequest{
			ID:        id,
			Kind:      affinityd.KindNear,
			Size:      512 << g.rng.Intn(3),
			BankProbe: []int64{0},
		}
		for k := g.rng.Intn(4) + 1; k > 0; k-- {
			t := affine[g.rng.Intn(len(affine))]
			req.Affinity = append(req.Affinity, affinityd.ElemRef{Ref: t.id, Elem: g.rng.Int63n(t.numElem)})
		}
		la = liveAlloc{id: id}
	case p < 0.30:
		req.Mode = sys.NearL3.String()
		if g.rng.Intn(2) == 0 {
			req.Mode = sys.InCore.String()
		}
	case p < 0.65 && len(roots) > 0:
		t := roots[g.rng.Intn(len(roots))]
		req.AlignTo = t.id
		switch g.rng.Intn(5) {
		case 0:
			req.AlignP, req.AlignQ = 1, 2
		case 1:
			req.AlignX = g.rng.Int63n(t.numElem)
		}
		la.affine = true
	default:
		la.affine, la.root = true, true
	}
	g.live = append(g.live, la)
	return req
}

// frees returns the IDs to free so that at most keep allocations stay
// live, chosen at random.
func (g *tenantGen) frees(keep int) []string {
	var ids []string
	for len(g.live) > keep {
		i := g.rng.Intn(len(g.live))
		ids = append(ids, g.live[i].id)
		g.live = append(g.live[:i], g.live[i+1:]...)
	}
	return ids
}

// fixtureBatch reproduces the near-allocation refill fault on a fresh
// machine, whatever the seed: a 1024-element root fills pool 64's first
// 64 lines, a 1008-element root takes all but the last line of the
// 64-line tail left free behind it, and a 64-byte near request with
// affinity to the first root's element 0 then chooses bank 0. The
// refill reclaims the one free line, which makes a chunk for bank 63
// only, reports success, and the request fails with "refill produced no
// chunks for bank 0". The request is counted as a failed operation.
func fixtureBatch() []affinityd.AllocRequest {
	return []affinityd.AllocRequest{
		{ID: "fx-t", ElemSize: 4, NumElem: 1024, BankProbe: probeElems},
		{ID: "fx-u", ElemSize: 4, NumElem: 1008, BankProbe: probeElems},
		{ID: "fx-n", Kind: affinityd.KindNear, Size: 64, Affinity: []affinityd.ElemRef{{Ref: "fx-t"}}, BankProbe: []int64{0}},
	}
}

// lifetimeLog records one tenant lifetime's requests and the placements
// the service returned, for the library replay check.
type lifetimeLog struct {
	spec       affinityd.MachineSpec
	steps      []logStep
	placements []affinityd.Placement
}

type logStep struct {
	allocs []affinityd.AllocRequest
	frees  []string
}

// replayLibrary re-issues a logged lifetime directly through a
// sys.System built as affinityd builds a tenant's machine, and returns
// its placements and the time sys.New took.
func replayLibrary(l *lifetimeLog) ([]affinityd.Placement, time.Duration, error) {
	lib, newT, err := newLibTenant(l.spec)
	if err != nil {
		return nil, 0, err
	}
	var out []affinityd.Placement
	for _, st := range l.steps {
		for _, req := range st.allocs {
			out = append(out, lib.alloc(req))
		}
		for _, id := range st.frees {
			if err := lib.free(id); err != nil {
				return nil, newT, err
			}
		}
	}
	return out, newT, nil
}

// newLibTenant builds the machine affinityd would build for spec (with
// no server defaults) and returns how long sys.New took.
func newLibTenant(spec affinityd.MachineSpec) (*libTenant, time.Duration, error) {
	cfg := sys.DefaultConfig()
	cfg.Seed = spec.Seed
	pcfg, err := core.ParsePolicy(spec.Policy)
	if err != nil {
		return nil, 0, err
	}
	cfg.Policy = pcfg
	if cfg.Faults, err = faults.Parse(spec.Faults); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	s, err := sys.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	return &libTenant{s: s, arrays: map[string]*core.ArrayInfo{}, bases: map[string]memsim.Addr{}, baseline: map[string]bool{}},
		time.Since(start), nil
}

// libTenant is one tenant's allocations held directly on a sys.System,
// resolving request IDs the way affinityd does.
type libTenant struct {
	s        *sys.System
	arrays   map[string]*core.ArrayInfo // Aff-Alloc affine arrays
	bases    map[string]memsim.Addr
	baseline map[string]bool
}

func (t *libTenant) alloc(req affinityd.AllocRequest) affinityd.Placement {
	p, err := t.place(req)
	if err != nil {
		return affinityd.Placement{ID: req.ID, Error: err.Error()}
	}
	return p
}

func (t *libTenant) place(req affinityd.AllocRequest) (affinityd.Placement, error) {
	if req.Kind == affinityd.KindNear {
		var addrs []memsim.Addr
		for _, ref := range req.Affinity {
			info := t.arrays[ref.Ref]
			if info == nil {
				return affinityd.Placement{}, fmt.Errorf("affinity ref %q is not a live affine allocation", ref.Ref)
			}
			addrs = append(addrs, info.ElemAddr(clamp(ref.Elem, info.NumElem)))
		}
		base, err := t.s.AllocNear(req.Size, addrs)
		if err != nil {
			return affinityd.Placement{}, err
		}
		chunk, _ := t.s.RT.ChunkOf(base)
		t.bases[req.ID] = base
		p := affinityd.Placement{ID: req.ID, Base: uint64(base), ElemSize: int(req.Size),
			ElemStride: chunk, NumElem: 1, Interleave: chunk, StartBank: t.s.BankOf(base)}
		for range req.BankProbe {
			p.Banks = append(p.Banks, p.StartBank)
		}
		return p, nil
	}
	mode := sys.AffAlloc
	if req.Mode != "" {
		var err error
		if mode, err = sys.ParseMode(req.Mode); err != nil {
			return affinityd.Placement{}, err
		}
	}
	spec := core.AffineSpec{ElemSize: req.ElemSize, NumElem: req.NumElem,
		AlignP: req.AlignP, AlignQ: req.AlignQ, AlignX: req.AlignX, Partition: req.Partition}
	if req.AlignTo != "" {
		target := t.arrays[req.AlignTo]
		if target == nil {
			return affinityd.Placement{}, fmt.Errorf("align_to %q is not a live affine allocation", req.AlignTo)
		}
		spec.AlignTo = target.Base
	}
	info, err := t.s.Alloc(mode, spec)
	if err != nil {
		return affinityd.Placement{}, err
	}
	t.bases[req.ID] = info.Base
	p := affinityd.Placement{ID: req.ID, Base: uint64(info.Base), ElemSize: info.ElemSize,
		ElemStride: info.ElemStride, NumElem: info.NumElem, Interleave: info.Interleave,
		PageMapped: info.PageMapped, StartBank: info.StartBank}
	if mode == sys.AffAlloc {
		t.arrays[req.ID] = info
	} else {
		t.baseline[req.ID] = true
		p.StartBank = t.s.BankOf(info.Base)
	}
	for _, i := range req.BankProbe {
		p.Banks = append(p.Banks, t.s.BankOf(info.ElemAddr(clamp(i, info.NumElem))))
	}
	return p, nil
}

func (t *libTenant) free(id string) error {
	base, ok := t.bases[id]
	if !ok {
		return fmt.Errorf("free %q: not a live allocation", id)
	}
	delete(t.bases, id)
	delete(t.arrays, id)
	if t.baseline[id] {
		delete(t.baseline, id)
		return nil
	}
	return t.s.Free(base)
}

func clamp(i, n int64) int64 {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
