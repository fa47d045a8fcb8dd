package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// update rewrites the goldens from the current code instead of
// comparing against them: go test ./cmd/pomexp -update.
var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// runMainEnv makes the test binary act as the pomexp command: TestMain
// runs main on the binary's arguments and exits, so the golden test
// drives the real CLI end to end without a separate build step.
const runMainEnv = "POMEXP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// summaryLine matches the trailing line that names the (temporary)
// output directory; it is the only run-dependent part of stdout.
var summaryLine = regexp.MustCompile(`(?m)^summary written to .*\n`)

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

// TestGoldenExperiments pins pomexp's stdout and SUMMARY.md byte for byte
// for the experiments that report through the materialized Result
// metrics: E5 (MeasureWave), E6 (AsymptoticGaps, AsymptoticSpread) and
// E7 (PhaseSlips).
func TestGoldenExperiments(t *testing.T) {
	for _, id := range []string{"e5", "e6", "e7"} {
		t.Run(id, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-only", id, "-out", dir}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("pomexp %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
			}
			checkGolden(t, id+".golden", summaryLine.ReplaceAll(out, nil))
			summary, err := os.ReadFile(filepath.Join(dir, "SUMMARY.md"))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, id+"-summary.golden", summary)
		})
	}
}
