package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
)

// containsInOrder reports the first line of want that does not occur in
// got at or after the match of the previous line ("" when all do).
func containsInOrder(got []byte, want []string) string {
	lines := strings.Split(string(got), "\n")
	i := 0
	for _, w := range want {
		for i < len(lines) && lines[i] != w {
			i++
		}
		if i == len(lines) {
			return w
		}
		i++
	}
	return ""
}

// TestClusterTraceMetricsCarryOver runs pomsim on each cluster spec in
// testdata/mpisim-*.json and checks that every metric line of the
// matching golden — the stdout of the former standalone engine CLI on
// the same run, header line dropped — appears verbatim and in order.
func TestClusterTraceMetricsCarryOver(t *testing.T) {
	for _, c := range []string{"pisolver", "stream", "schoenauer", "supermuc", "gantt"} {
		t.Run(c, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "mpisim-"+c+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")[1:]
			out := runPomsim(t, "-config", filepath.Join("testdata", "mpisim-"+c+".json"), "-quiet")
			if miss := containsInOrder(out, want); miss != "" {
				t.Errorf("line %q missing or out of order in\n%s", miss, out)
			}
		})
	}
}

// TestClusterSVGArtifacts checks that -svg DIR on a cluster run writes
// the Gantt chart and the trace CSV with the pinned SHA-256s.
func TestClusterSVGArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := runPomsim(t, "-config", filepath.Join("testdata", "mpisim-gantt.json"), "-svg", dir)
	if !bytes.Contains(out, []byte("trace SVG and CSV written to "+dir)) {
		t.Errorf("no artifact line in\n%s", out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "mpisim-gantt.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, name := range []string{"trace.svg", "trace.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&got, "%s  %s\n", hex.EncodeToString(sum[:]), name)
	}
	if got.String() != string(want) {
		t.Errorf("artifact hashes\n%s want\n%s", got.String(), want)
	}
}

// writeClusterSpec writes a small cluster spec with the given delays
// and returns its path.
func writeClusterSpec(t *testing.T, delays ...scenario.ClusterDelaySpec) string {
	t.Helper()
	spec := &scenario.Spec{
		Name:    "delays",
		Family:  "cluster",
		Cluster: &scenario.ClusterSpec{N: 16, Iters: 60, Delays: delays},
		Samples: 101,
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterDelayAtIterZero checks that a delay at iteration 0 has no
// idle-wave line (its wave has no measured origin) and does not crash,
// while the delayed run still reports its desync.
func TestClusterDelayAtIterZero(t *testing.T) {
	out := runPomsim(t, "-config", writeClusterSpec(t, scenario.ClusterDelaySpec{Rank: 3, Iter: 0, Extra: 0.5}))
	if bytes.Contains(out, []byte("idle wave")) {
		t.Errorf("idle-wave line for an iteration-0 delay:\n%s", out)
	}
	if !bytes.Contains(out, []byte("asymptotic desync: ")) {
		t.Errorf("no desync line for a delayed run:\n%s", out)
	}
}

// TestClusterIdleWavesInSpecOrder checks that two delays print two
// idle-wave lines, each measured from its own delay, in spec order. The
// first delay comes late, so its wave runs out of iterations before it
// reaches every rank and the two lines differ; it is also the longer
// one, because a wave is detected against the longest wait before it.
func TestClusterIdleWavesInSpecOrder(t *testing.T) {
	delays := []scenario.ClusterDelaySpec{
		{Rank: 12, Iter: 50, Extra: 1},
		{Rank: 2, Iter: 10, Extra: 0.5},
	}
	path := writeClusterSpec(t, delays...)
	spec, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, _, err := spec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.(*cluster.TraceSystem).Result().Trace
	iterDur := tr.MeanIterationTime(0)
	var want []string
	for _, d := range delays {
		wm, err := tr.MeasureIdleWave(d.Rank, tr.IterEnds[d.Rank][d.Iter-1], 0.5*iterDur, iterDur, false)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("idle wave: %.3f ranks/iter (R²=%.2f, reached %d)",
			wm.SpeedRanksPerIter, wm.R2, wm.Reached))
	}
	if want[0] == want[1] {
		t.Fatalf("both delays measure the same wave %q; the order check needs distinct lines", want[0])
	}
	out := runPomsim(t, "-config", path)
	if n := bytes.Count(out, []byte("idle wave: ")); n != 2 {
		t.Errorf("%d idle-wave lines, want 2:\n%s", n, out)
	}
	if miss := containsInOrder(out, want); miss != "" {
		t.Errorf("line %q missing or out of order in\n%s", miss, out)
	}
}

// TestSVGRefusedForPlotlessFamily checks that -svg on a family with
// neither POM plots nor a cluster trace exits 1 with the refusal.
func TestSVGRefusedForPlotlessFamily(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-config", scenarioFile("kuramoto"), "-svg", t.TempDir())
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1", err)
	}
	if !strings.Contains(stderr.String(), `-svg: family "kuramoto" runs in streaming mode`) {
		t.Errorf("stderr %q lacks the -svg refusal", stderr.String())
	}
}
