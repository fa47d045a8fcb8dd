package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/archive"
	"repro/internal/scenario"
)

// update rewrites the goldens from the current code instead of
// comparing against them: go test ./cmd/pomsim -run Golden -update.
var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// runMainEnv makes the test binary act as the pomsim command: TestMain
// runs main on the binary's arguments and exits, so the golden tests
// drive the real CLI end to end without a separate build step.
const runMainEnv = "POMSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPomsim executes pomsim with args and returns its stdout; a
// non-zero exit fails the test with the command's stderr.
func runPomsim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("pomsim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func scenarioFile(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name+".json")
}

// TestGoldenStdout pins pomsim's stdout byte for byte: every example
// scenario, the streaming and phase-strip POM paths, and flag-built
// runs over the idle-wave, wavefront and interaction-delay regimes.
func TestGoldenStdout(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"pom-stream", []string{"-config", scenarioFile("pom"), "-stream"}},
		{"pom-strip", []string{"-config", scenarioFile("pom")}},
		{"flags-tanh-delay", []string{"-n", "40", "-potential", "tanh", "-delay-rank", "5", "-t", "60"}},
		{"flags-desync", []string{"-potential", "desync", "-desync-init"}},
		{"flags-desync-stream", []string{"-potential", "desync", "-desync-init", "-stream"}},
		{"flags-comm-lag", []string{"-comm-lag", "0.3"}},
	}
	for _, fam := range scenario.Families() {
		cases = append(cases, struct {
			name string
			args []string
		}{"scenario-" + fam, []string{"-config", scenarioFile(fam), "-quiet"}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name+".golden", runPomsim(t, tc.args...))
		})
	}
}

// TestGoldenArchive pins one -archive run per family: the stdout (the
// archive directory normalized to DIR) and the SHA-256 of the written
// shard. Every record's params vector must open with the common
// [dim, t_end, samples] prefix of the resolved run controls — including
// a POM spec that leaves t_end to the family default.
func TestGoldenArchive(t *testing.T) {
	cases := map[string]string{"pom-default-tend": filepath.Join("testdata", "pom_default_tend.json")}
	for _, fam := range scenario.Families() {
		cases[fam] = scenarioFile(fam)
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			out := runPomsim(t, "-config", cfg, "-archive", dir)
			checkGolden(t, "archive-"+name+".golden", bytes.ReplaceAll(out, []byte(dir), []byte("DIR")))

			shard := archive.ShardPath(dir, 0)
			data, err := os.ReadFile(shard)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			checkGolden(t, "archive-"+name+".sha256", []byte(hex.EncodeToString(sum[:])+"\n"))

			spec, err := scenario.LoadFile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys, tEnd, samples, err := spec.BuildSystem()
			if err != nil {
				t.Fatal(err)
			}
			sh, err := archive.OpenShard(shard)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			rec, err := sh.Read(0)
			if err != nil {
				t.Fatal(err)
			}
			want := []float64{float64(sys.Dim()), tEnd, float64(samples)}
			if len(rec.Params) < len(want) {
				t.Fatalf("params %v shorter than the common prefix %v", rec.Params, want)
			}
			for i, w := range want {
				if rec.Params[i] != w {
					t.Errorf("params %v: prefix want %v", rec.Params, want)
					break
				}
			}
		})
	}
}
