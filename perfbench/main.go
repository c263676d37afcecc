// Command perfbench is the repository's benchmark: one program that runs
// the simulator and the affinityd placement service on seeded inputs,
// checks their outputs, and reports end-to-end metrics (untraced runs) or
// per-layer metrics (traced runs). See README.md for the workloads, the
// metric definitions and reference figures.
//
//	go build -o perfbench . && ./perfbench --workload sim-table3 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {"wall_s": {"value": 9.1, "unit": "s"}, ...}}
//
// A failed output check names itself on standard error and makes the
// program exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what every workload receives: its inputs' seed, the length of
// the timed phase, whether this is the traced run, where it may put
// temporary files, and the calibration kernel its timings are scaled by.
type env struct {
	seed    int64
	budget  time.Duration
	traced  bool
	scratch string
	cal     *calibrator // the host-speed calibration kernel (calib.go)
}

// workloadFuncs maps the --workload names to their runners.
var workloadFuncs = map[string]func(env) (*report, error){
	"sim-table3":    runSimTable3,
	"sim-scenarios": runSimScenarios,
	"svc-churn":     runSvcChurn,
}

func main() {
	name := flag.String("workload", "", "workload: sim-table3 | sim-scenarios | svc-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for temporary files")
	flag.Parse()

	run, ok := workloadFuncs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	printHost(os.Stdout)
	e := env{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		scratch: *scratch,
		cal:     newCalibrator(),
	}
	rep, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s: attempted %d operations, failed %d\n", *name, rep.attempted, rep.failed)

	names := endToEnd
	if e.traced {
		names = perLayer
	}
	out, err := rep.result(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloadFuncs {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printHost writes the host block every run starts with.
func printHost(w io.Writer) {
	fmt.Fprintf(w, "host: cpu %q, NumCPU %d, GOMAXPROCS %d, GOARCH %s, %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version())
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
