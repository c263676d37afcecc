// Package cliconf is the single definition of the flags shared by the
// repository's binaries (affsim, afftables, affinityd, affload):
// -scale, -seed, -j, -policy, -faults, -realloc, -metrics-out,
// -trace-out, -pprof, -timing, -record and -replay. Each binary registers the subset it
// serves, so names, defaults and help text cannot drift between CLIs,
// and resolves them into validated harness.Options / core.PolicyConfig
// / faults.Spec values through one code path.
package cliconf

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"affinityalloc/internal/core"
	"affinityalloc/internal/faults"
	"affinityalloc/internal/harness"
	"affinityalloc/internal/realloc"
)

// Flags selects which canonical flags to register.
type Flags uint

const (
	// FlagScale registers -scale (tiny|default|paper).
	FlagScale Flags = 1 << iota
	// FlagSeed registers -seed.
	FlagSeed
	// FlagJobs registers -j.
	FlagJobs
	// FlagPolicy registers -policy.
	FlagPolicy
	// FlagFaults registers -faults.
	FlagFaults
	// FlagMetricsOut registers -metrics-out.
	FlagMetricsOut
	// FlagTraceOut registers -trace-out.
	FlagTraceOut
	// FlagPprof registers -pprof.
	FlagPprof
	// FlagTiming registers -timing.
	FlagTiming
	// FlagRecord registers -record (afftrace/v1 scenario recording).
	FlagRecord
	// FlagReplay registers -replay (afftrace/v1 scenario replay).
	FlagReplay
	// FlagRealloc registers -realloc (online re-allocation; see
	// realloc.Parse). Not part of HarnessFlags so binaries opt in
	// explicitly — affinityd, for instance, serves placement only.
	FlagRealloc

	// HarnessFlags is the experiment-harness set.
	HarnessFlags = FlagScale | FlagSeed | FlagJobs | FlagFaults | FlagTiming
	// ArtifactFlags is the artifact/profiling set.
	ArtifactFlags = FlagMetricsOut | FlagTraceOut | FlagPprof
)

// Config holds the parsed flag values. Fields for unregistered flags
// keep their defaults.
type Config struct {
	Scale      string
	Seed       int64
	Jobs       int
	PolicyStr  string
	FaultsStr  string
	MetricsOut string
	TraceOut   string
	PprofOut   string
	Timing     bool
	RecordOut  string
	ReplayIn   string
	ReallocStr string
}

// Register installs the selected flags on fs (use flag.CommandLine in
// main) and returns the value holder to read after fs.Parse.
func Register(fs *flag.FlagSet, which Flags) *Config {
	c := &Config{Scale: "default", Seed: 1, PolicyStr: "hybrid5"}
	if which&FlagScale != 0 {
		fs.StringVar(&c.Scale, "scale", c.Scale, "experiment scale: tiny|default|paper")
	}
	if which&FlagSeed != 0 {
		fs.Int64Var(&c.Seed, "seed", c.Seed, "simulation seed")
	}
	if which&FlagJobs != 0 {
		fs.IntVar(&c.Jobs, "j", 0, "concurrent simulation cells (default GOMAXPROCS)")
	}
	if which&FlagPolicy != 0 {
		fs.StringVar(&c.PolicyStr, "policy", c.PolicyStr, "bank policy: rnd|lnr|minhop|hybrid<H> (e.g. hybrid5)")
	}
	if which&FlagFaults != 0 {
		fs.StringVar(&c.FaultsStr, "faults", "", "degrade the machine, e.g. dead-banks=2,dead-link=3>4,drop-link=0>1:0.05,dram-slow=0:2 (see faults.Parse)")
	}
	if which&FlagMetricsOut != 0 {
		fs.StringVar(&c.MetricsOut, "metrics-out", "", "write per-cell telemetry as a metrics JSON document")
	}
	if which&FlagTraceOut != 0 {
		fs.StringVar(&c.TraceOut, "trace-out", "", "write sim-time phases as a Chrome trace_event JSON timeline")
	}
	if which&FlagPprof != 0 {
		fs.StringVar(&c.PprofOut, "pprof", "", "write a CPU profile of the process")
	}
	if which&FlagTiming != 0 {
		fs.BoolVar(&c.Timing, "timing", false, "report per-cell wall time and sim-cycles/s on stderr")
	}
	if which&FlagRecord != 0 {
		fs.StringVar(&c.RecordOut, "record", "", "record an afftrace/v1 scenario trace of every simulation cell to this file (.jsonl for text, anything else binary)")
	}
	if which&FlagReplay != 0 {
		fs.StringVar(&c.ReplayIn, "replay", "", "replay a recorded afftrace/v1 trace instead of simulating, verifying placements against the recording")
	}
	if which&FlagRealloc != 0 {
		fs.StringVar(&c.ReallocStr, "realloc", "", "enable the online reconciler, e.g. epoch=2000,threshold=0.25,budget=4,hysteresis=3,payback=8 (see realloc.Parse)")
	}
	return c
}

// Faults parses the -faults value.
func (c *Config) Faults() (faults.Spec, error) {
	return faults.Parse(c.FaultsStr)
}

// Realloc parses the -realloc value (a zero Config — disabled — when
// the flag was empty or unregistered).
func (c *Config) Realloc() (realloc.Config, error) {
	return realloc.Parse(c.ReallocStr)
}

// Policy parses the -policy value.
func (c *Config) Policy() (core.PolicyConfig, error) {
	return core.ParsePolicy(c.PolicyStr)
}

// Options resolves the harness options from the registered flags and
// validates them, so every binary reports one named error up front
// instead of one failure per simulation cell.
func (c *Config) Options() (harness.Options, error) {
	scale, err := harness.ParseScale(c.Scale)
	if err != nil {
		return harness.Options{}, err
	}
	spec, err := c.Faults()
	if err != nil {
		return harness.Options{}, err
	}
	rcfg, err := c.Realloc()
	if err != nil {
		return harness.Options{}, err
	}
	opt := harness.Options{Scale: scale, Seed: c.Seed, Jobs: c.Jobs, Faults: spec, Realloc: rcfg}
	if err := opt.Validate(); err != nil {
		return harness.Options{}, err
	}
	return opt, nil
}

// StartProfile starts the -pprof CPU profile when requested. The
// returned stop function is safe to call unconditionally (and more than
// once); it flushes and closes the profile.
func (c *Config) StartProfile() (func(), error) {
	if c.PprofOut == "" {
		return func() {}, nil
	}
	f, err := os.Create(c.PprofOut)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// Artifacts builds the harness artifact request from -metrics-out and
// -trace-out; the returned closer flushes both files. A nil *Artifacts
// (no flag set) is valid to pass straight to the harness.
func (c *Config) Artifacts(experiment string, scale harness.Scale) (*harness.Artifacts, func(), error) {
	if c.MetricsOut == "" && c.TraceOut == "" {
		return nil, func() {}, nil
	}
	arts := &harness.Artifacts{Experiment: experiment, Scale: scale, Seed: c.Seed}
	var files []*os.File
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("cliconf: %w", err)
		}
		files = append(files, f)
		return f, nil
	}
	if c.MetricsOut != "" {
		f, err := open(c.MetricsOut)
		if err != nil {
			return nil, nil, err
		}
		arts.MetricsOut = f
	}
	if c.TraceOut != "" {
		f, err := open(c.TraceOut)
		if err != nil {
			return nil, nil, err
		}
		arts.TraceOut = f
	}
	return arts, closeAll, nil
}
