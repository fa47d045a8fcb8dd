package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// sizes scale a run. The benchmark runs at fullSize; the tests shrink it.
type sizes struct {
	setupReps   int // set-ups per run; setup_s is their median
	minOps      int // requests a serve phase issues at least
	hotPool     int // serve-hot's pre-run spec pool
	sigmas      int // sweep grid: sigma values
	couplings   int // sweep grid: coupling values
	rangeSize   int // sweep points per lease
	sweepChecks int // merged records checked per sweep round
	epochOps    int // serve requests per server lifetime and statistics window
}

var fullSize = sizes{setupReps: 3, minOps: 14, hotPool: 14, sigmas: 48, couplings: 20, rangeSize: 64, sweepChecks: 3, epochOps: 150}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"serve-cold", "serve-hot", "sweep-fleet"}

var workloadFuncs = map[string]func(*workload) error{
	"serve-cold":  runServeCold,
	"serve-hot":   runServeHot,
	"sweep-fleet": runSweepFleet,
}

// options configure one invocation.
type options struct {
	root    string // repository root (holds examples/scenarios)
	work    string // scratch root for caches, archives, traces
	seed    uint64
	seconds float64
	trace   bool
	size    sizes
	// Test hooks that corrupt outputs, to prove the checks catch it.
	tamperBody  func(serial int, body []byte)
	tamperFleet func(dir string) error
}

// workload is the state of one workload run.
type workload struct {
	options
	name   string
	dir    string // this run's scratch directory
	dur    time.Duration
	gen    *specGen
	rng    *rand.Rand // seed-derived choices of checked outputs
	rep    *report
	tr     *tracer // nil on untraced runs
	epochs int     // servers restarted so far
}

// setSelf reports each layer's self time per operation.
func (w *workload) setSelf(self map[string]time.Duration, ops int) {
	for _, l := range selfLayers {
		w.rep.set("self_ms."+l, float64(self[l])/float64(time.Millisecond)/float64(max(ops, 1)))
	}
}

// runWorkload runs one workload and returns its report. Errors are
// set-up or harness failures; failed output checks land in the report.
func runWorkload(name string, o options, log io.Writer) (*report, error) {
	fn, ok := workloadFuncs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
	}
	gen, err := newSpecGen(o.root, o.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("run-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch only; a leftover is harmless
	h := fnv.New64a()
	h.Write([]byte(name))
	w := &workload{
		options: o,
		name:    name,
		dir:     dir,
		dur:     time.Duration(o.seconds * float64(time.Second)),
		gen:     gen,
		rng:     rand.New(rand.NewPCG(o.seed, h.Sum64())),
		rep:     newReport(log),
	}
	if o.trace {
		w.tr = newTracer()
	}
	if err := fn(w); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if o.trace {
		traces := filepath.Join(o.work, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return nil, err
		}
		if err := w.tr.write(filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", name, o.seed))); err != nil {
			return nil, err
		}
	}
	if err := checkDrift(filepath.Join(o.work, "exact"), name, o.seed, w.rep); err != nil {
		return nil, err
	}
	return w.rep, nil
}

// checkDrift compares the run's exact counts with the ones an earlier
// run of the same workload and seed stored, and stores them the first
// time. A count that moved is a failed check: these depend only on the
// generated inputs, so a change means the program stopped being
// deterministic.
func checkDrift(dir, name string, seed uint64, rep *report) error {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	prev := make(map[string]float64)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
	default:
		return err
	}
	changed := false
	for _, d := range perLayer {
		v, ok := rep.exact[d.name]
		if !ok {
			continue
		}
		old, seen := prev[d.name]
		if seen && old != v {
			rep.fail("%s: exact count %s drifted from %v to %v between runs of seed %d", name, d.name, old, v, seed)
		}
		if !seen {
			prev[d.name] = v
			changed = true
		}
	}
	if !changed {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints a workload's metrics as text and adds them to res. prefix
// qualifies the names when several workloads share one result line.
func emit(stdout io.Writer, name, prefix string, rep *report, trace bool, res *result) {
	defs := endToEnd
	if trace {
		defs = perLayer
		if bypassed := rep.missing(defs); len(bypassed) > 0 {
			fmt.Fprintf(stdout, "%s bypasses (reported as 0): %s\n", name, strings.Join(bypassed, " "))
		}
	}
	fmt.Fprintf(stdout, "%s attempted %d failed %d\n", name, rep.attempted, rep.failed)
	for _, d := range defs {
		v := rep.metrics[d.name]
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", name, d.name, v, d.unit)
		res.Metrics[prefix+d.name] = metricOut{Value: v, Unit: d.unit}
	}
	res.Attempted += rep.attempted
	res.Failed += rep.failed
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it returns the process exit code — 0 when every
// output check passed, 1 when one failed, 2 when the run could not
// complete (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "serve-cold, serve-hot, sweep-fleet, or all")
	seed := fl.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fl.Float64("seconds", 10, "measurement window per workload")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	root := fl.String("root", ".", "repository root")
	work := fl.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	o := options{root: *root, work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1, size: fullSize}
	names := []string{*name}
	prefix := func(string) string { return "" }
	if *name == "all" {
		names = workloadNames
		prefix = func(n string) string { return n + "." }
	}
	host := fingerprint()
	hb, _ := json.Marshal(map[string]hostInfo{"host": host})
	fmt.Fprintf(stdout, "%s\n", hb)
	res := result{Metrics: make(map[string]metricOut)}
	for _, n := range names {
		rep, err := runWorkload(n, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		if o.trace {
			rep.set("host.calibration_ms", host.CalibrationMs)
		}
		emit(stdout, n, prefix(n), rep, o.trace, &res)
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}
