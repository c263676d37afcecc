package workloads

import (
	"testing"

	"affinityalloc/internal/faults"
	"affinityalloc/internal/realloc"
	"affinityalloc/internal/sys"
)

// reallocRun executes the skew workload on a system with the given fault
// spec and reconciler config and returns the system (for its reconciler
// log) and the result.
func reallocRun(t *testing.T, w Skew, spec faults.Spec, rcfg realloc.Config) (*sys.System, Result) {
	t.Helper()
	cfg := sys.DefaultConfig()
	cfg.Faults = spec
	cfg.Realloc = rcfg
	s, err := sys.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(s, sys.AffAlloc)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

var skewRealloc = realloc.Config{Epoch: 2000}.WithDefaults()

// TestSkewConvergesWithoutPingPong is the convergence regression of the
// issue: on the two-phase hotspot workload the reconciler must migrate at
// least once, must respect the hysteresis pin (no granule moves again
// within Hysteresis epochs of its last move), must never bounce a granule
// straight back to the bank it just left, and must go quiet once the
// placement has spread — the final closed epoch plans nothing.
func TestSkewConvergesWithoutPingPong(t *testing.T) {
	// Long phases give the reconciler several epochs of steady state after
	// each phase change, so a converged placement has a quiet tail.
	w := DefaultSkew()
	w.OpsPerPhase = 12000
	s, res := reallocRun(t, w, faults.Spec{}, skewRealloc)
	c := s.Realloc.Counters()
	if c.Migrations == 0 {
		t.Fatalf("two-phase hotspot triggered no migrations: %+v", c)
	}
	if c.Epochs < 3 {
		t.Fatalf("run too short to judge convergence: %d epochs", c.Epochs)
	}
	last := map[uint64]realloc.Applied{}
	for _, m := range s.Realloc.Log() {
		if prev, ok := last[uint64(m.Chunk)]; ok {
			if m.Epoch-prev.Epoch <= uint64(skewRealloc.Hysteresis) {
				t.Errorf("hysteresis violated: chunk %#x moved at epoch %d and again at %d (pin %d)",
					m.Chunk, prev.Epoch, m.Epoch, skewRealloc.Hysteresis)
			}
			if m.To == prev.From {
				t.Errorf("ping-pong: chunk %#x went %d->%d then back to %d",
					m.Chunk, prev.From, prev.To, m.To)
			}
		}
		last[uint64(m.Chunk)] = m
	}
	for _, m := range s.Realloc.Log() {
		if m.Epoch == c.Epochs {
			t.Errorf("placement did not converge: migration %+v in the final epoch %d", m, c.Epochs)
		}
	}

	// Migration is timing-only: the static run computes the same result.
	_, static := reallocRun(t, w, faults.Spec{}, realloc.Config{})
	if res.Checksum != static.Checksum {
		t.Fatalf("dynamic checksum %x != static %x", res.Checksum, static.Checksum)
	}
}

// TestKillRehomesStrandedChunks kills the hot bank mid-run and checks the
// reconciler notices through telemetry alone: every granule stranded on
// the dead bank is re-homed to an alive bank, nothing migrates back, and
// the re-homed machine beats the static one (which keeps paying the
// survivor line-spread remap on every access).
func TestKillRehomesStrandedChunks(t *testing.T) {
	spec := faults.Spec{Kills: []faults.BankKill{{Bank: 27, At: 3000}}}
	s, res := reallocRun(t, DefaultSkew(), spec, skewRealloc)
	c := s.Realloc.Counters()
	if c.KillRehomes == 0 {
		t.Fatalf("bank kill produced no re-homes: %+v", c)
	}
	space := s.RT.Space()
	if space.BankAlive(27) {
		t.Fatal("bank 27 still alive after the armed kill")
	}
	for _, m := range s.Realloc.Log() {
		if m.Rehome && m.From != 27 {
			t.Errorf("re-home %+v does not leave the killed bank", m)
		}
		if m.To == 27 {
			t.Errorf("migration %+v targets the killed bank", m)
		}
		if m.Rehome && space.BankAlive(m.From) {
			t.Errorf("re-home %+v left an alive bank", m)
		}
	}

	_, static := reallocRun(t, DefaultSkew(), spec, realloc.Config{})
	if res.Checksum != static.Checksum {
		t.Fatalf("dynamic checksum %x != static %x", res.Checksum, static.Checksum)
	}
	if res.Metrics.Cycles >= static.Metrics.Cycles {
		t.Errorf("re-homing did not pay: dynamic %d cycles >= static %d", res.Metrics.Cycles, static.Metrics.Cycles)
	}
}
