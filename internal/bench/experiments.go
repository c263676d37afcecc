package bench

import (
	"regexp"
	"testing"

	"affinityalloc/internal/harness"
)

// ExperimentEntries wraps every paper experiment as a benchmark entry.
// Each iteration regenerates the experiment end to end at the given
// sizing on one worker (Jobs=1, so ns/op is not scheduler noise), and the
// per-cell timing accounting is folded into a sim-cycles/sec metric
// (harness.Timing.SimCyclesPerSec, the number affsim -timing prints).
func ExperimentEntries(scale harness.Scale, seed int64) []Entry {
	exps := harness.Experiments()
	out := make([]Entry, 0, len(exps))
	for _, e := range exps {
		e := e
		out = append(out, Entry{
			Name: "experiment/" + e.ID,
			F: func(b *testing.B) {
				tm := &harness.Timing{}
				for i := 0; i < b.N; i++ {
					fig, err := e.Run(harness.Options{Scale: scale, Seed: seed, Jobs: 1, Timing: tm})
					if err != nil {
						b.Fatal(err)
					}
					if len(fig.Tables) == 0 {
						b.Fatal("experiment produced no tables")
					}
				}
				if rate := tm.SimCyclesPerSec(); rate > 0 {
					b.ReportMetric(rate, "simcycles/s")
				}
			},
		})
	}
	return out
}

// Entries assembles the runnable set — the experiment suite — filtered
// by the optional name regexp.
func Entries(scale harness.Scale, seed int64, filter *regexp.Regexp) []Entry {
	all := ExperimentEntries(scale, seed)
	if filter == nil {
		return all
	}
	out := all[:0]
	for _, e := range all {
		if filter.MatchString(e.Name) {
			out = append(out, e)
		}
	}
	return out
}
