package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
)

// tinySize shrinks every workload so a run takes about a second.
var tinySize = sizes{setupReps: 1, minOps: 14, hotPool: 7, sigmas: 4, couplings: 3, rangeSize: 4, sweepChecks: 2, epochOps: 7}

func tinyOptions(t *testing.T, trace bool) options {
	return options{root: "..", work: t.TempDir(), seed: 3, seconds: 0.2, trace: trace, size: tinySize}
}

// runTiny runs one workload at tiny size and returns its report and
// result line.
func runTiny(t *testing.T, name string, o options) (*report, result) {
	t.Helper()
	var log bytes.Buffer
	rep, err := runWorkload(name, o, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, log.String())
	}
	res := result{Metrics: make(map[string]metricOut)}
	var out bytes.Buffer
	emit(&out, name, "", rep, o.trace, &res)
	res.Correct = res.Failed == 0
	return rep, res
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	// Metrics each workload must measure (non-zero) on a traced run; the
	// rest of perLayer may be 0 where the workload bypasses the layer.
	measured := map[string][]string{
		"serve-cold": {"scenario.build_ms.linstab", "sim.solve_ms.torus2d", "ode.steps.pom", "ode.evals.cluster",
			"serve.render_ms.pom", "serve.submit_us", "archive.encode_mb_per_s", "archive.close_ms",
			"serve.executions_per_spec", "serve.unaccounted_share", "http.body_bytes_per_op", "self_ms.sim"},
		"serve-hot": {"scenario.decode_us", "scenario.hash_us", "serve.render_mb_per_s", "archive.read_ms",
			"serve.hit_ratio", "http.body_mb_per_s", "archive.compression_ratio", "self_ms.http"},
		"sweep-fleet": {"sim.solve_ms.sweep_point", "dsweep.merge_ms", "dsweep.leased", "dsweep.overhead_ratio",
			"archive.bytes_per_point", "archive.encode_mb_per_s", "self_ms.dsweep"},
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, res := runTiny(t, name, tinyOptions(t, trace))
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				for _, n := range measured[name] {
					if !(rep.metrics[n] > 0) {
						t.Errorf("%s: traced metric %s = %v, want > 0", name, n, rep.metrics[n])
					}
				}
			}
		}
	}
}

func TestCorruptBodyIsAFailure(t *testing.T) {
	for _, name := range []string{"serve-hot", "serve-cold"} {
		o := tinyOptions(t, false)
		// Flip one digit in the middle of every body: the row count and
		// framing survive, so only the byte comparison can catch it.
		o.tamperBody = func(serial int, body []byte) {
			for i := len(body) / 2; i < len(body); i++ {
				if body[i] >= '1' && body[i] <= '8' {
					body[i]++
					return
				}
			}
		}
		_, res := runTiny(t, name, o)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted bodies went unnoticed (failed=%d of %d)", name, res.Failed, res.Attempted)
		}
	}
}

func TestMissingSweepPointIsAFailure(t *testing.T) {
	o := tinyOptions(t, false)
	o.tamperFleet = func(dir string) error {
		shards, err := filepath.Glob(archive.ShardPattern(dir))
		if err != nil || len(shards) == 0 {
			return err
		}
		return os.Remove(shards[0])
	}
	_, res := runTiny(t, "sweep-fleet", o)
	if res.Correct || res.Failed == 0 {
		t.Errorf("a missing sweep shard went unnoticed (failed=%d of %d)", res.Failed, res.Attempted)
	}
}

func TestDriftIsAFailure(t *testing.T) {
	dir := t.TempDir()
	first := newReport(&bytes.Buffer{})
	first.setExact("ode.steps.pom", 1615)
	if err := checkDrift(dir, "serve-cold", 9, first); err != nil || first.failed != 0 {
		t.Fatalf("first run: err=%v failed=%d", err, first.failed)
	}
	same := newReport(&bytes.Buffer{})
	same.setExact("ode.steps.pom", 1615)
	if err := checkDrift(dir, "serve-cold", 9, same); err != nil || same.failed != 0 {
		t.Fatalf("repeat run: err=%v failed=%d", err, same.failed)
	}
	moved := newReport(&bytes.Buffer{})
	moved.setExact("ode.steps.pom", 1616)
	if err := checkDrift(dir, "serve-cold", 9, moved); err != nil || moved.failed != 1 {
		t.Fatalf("drifted run: err=%v failed=%d, want one failure", err, moved.failed)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	tr := &tracer{}
	root := tr.add(span{Name: "http.request", Start: 0, End: ms(100)})
	tr.add(span{Parent: root, Name: "scenario.build", Start: ms(10), End: ms(40)})
	tr.add(span{Parent: root, Name: "sim.solve", Start: ms(30), End: ms(60)}) // overlaps build by 10
	tr.add(span{Parent: root, Name: "archive.read", Start: ms(0), End: ms(100), Aux: true})
	self := tr.selfTimes()
	if self["http"] != ms(50) || self["scenario"] != ms(30) || self["sim"] != ms(30) || self["archive"] != 0 {
		t.Errorf("self times %v", self)
	}
}

func TestWindowedTimings(t *testing.T) {
	var ws []*window
	for i := 0; i < 3; i++ {
		w := &window{dur: time.Second}
		for j := 0; j < 10; j++ {
			w.lat = append(w.lat, float64(j))
			w.ttfr = append(w.ttfr, float64(j)/2)
		}
		w.peak.max.Store(uint64(i+1) << 20)
		ws = append(ws, w)
	}
	ws[2].peak.max.Store(100 << 20) // one late collection must not move the peak
	got := summarize(ws)
	if got.opsPerS != 10 || got.p50 != 4.5 || got.ttfr50 != 2.25 || got.peakMiB != 2 {
		t.Errorf("timings %+v", got)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metric tables and
// workloads the command implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames)
	}
	pin := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	pin("end_to_end", spec.EndToEnd, endToEnd)
	pin("per_layer", spec.PerLayer, perLayer)
}

func TestCommandRefusesWithoutARepository(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "serve-hot", "--root", t.TempDir(), "--work", t.TempDir(), "--seconds", "1"}, &stdout, &stderr)
	if code == 0 || strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("exit %d with output %q; want a non-zero exit and no result", code, stdout.String())
	}
}

// TestPomvetClean holds the benchmark to the tree's determinism gates:
// its wall-clock reads carry reasoned allow directives.
func TestPomvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the package")
	}
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range analysis.Run(pkgs, analysis.All()) {
		t.Errorf("%s", f)
	}
}
