package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestValidationFieldPaths pins that validation failures carry the
// offending field's config path — one invalid document per family, plus
// the shared surfaces (family, run controls, nested jitter/delay
// paths). The HTTP layer surfaces these paths in its 400 bodies, so a
// path regression here is an API regression there.
func TestValidationFieldPaths(t *testing.T) {
	for _, tc := range []struct {
		name, doc, path string
	}{
		{"pom sigma", `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"desync","sigma":-1},"offsets":[-1,1]}`, "potential.sigma"},
		{"pom n", `{"n":1,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1]}`, "n"},
		{"pom delay rank", `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"delays":[{"rank":99,"start":1,"duration":1}]}`, "delays[0].rank"},
		{"pom jitter dist", `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"jitter":{"dist":"weird","amp":0.1}}`, "jitter.dist"},
		{"kuramoto n", `{"family":"kuramoto","kuramoto":{"n":1,"k":1}}`, "kuramoto.n"},
		{"continuum k", `{"family":"continuum","continuum":{"m":32,"a":0.5,"k":-1,"potential":{"kind":"tanh"}}}`, "continuum.k"},
		{"torus2d nx", `{"family":"torus2d","torus2d":{"nx":1,"ny":4,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"radius":1}}`, "torus2d.nx"},
		{"linstab range", `{"family":"linstab","linstab":{"n":8,"offsets":[-1,1],"potential":{"kind":"tanh"},"from":2,"to":1}}`, "linstab.from"},
		{"cluster iters", `{"family":"cluster","cluster":{"n":4,"iters":0}}`, "cluster.iters"},
		{"unknown family", `{"family":"nope"}`, "family"},
		{"bad samples", `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"samples":-1}`, "samples"},
	} {
		_, err := Load(bytes.NewReader([]byte(tc.doc)))
		if err == nil {
			t.Errorf("%s: document validated, want error", tc.name)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %q carries no FieldError", tc.name, err)
			continue
		}
		if fe.Path != tc.path {
			t.Errorf("%s: field path %q, want %q (error: %v)", tc.name, fe.Path, tc.path, err)
		}
		if !strings.Contains(err.Error(), "(field "+tc.path+")") {
			t.Errorf("%s: error text %q does not name the field path", tc.name, err)
		}
	}
}

// TestSamplesControl pins the samples run control end to end: 0 selects
// the family default, 1 is rejected on the "samples" path (a run always
// emits both endpoints, so it used to stream 2 rows while the archived
// params said 1), and any count from 2 up streams exactly that many rows.
func TestSamplesControl(t *testing.T) {
	const doc = `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"t_end":5,"samples":%d}`
	_, err := Load(strings.NewReader(fmt.Sprintf(doc, 1)))
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Path != "samples" {
		t.Fatalf("samples 1: err = %v, want a FieldError on samples", err)
	}
	for samples, want := range map[int]int{0: pomDefaultSamples, 2: 2, 3: 3} {
		spec, err := Load(strings.NewReader(fmt.Sprintf(doc, samples)))
		if err != nil {
			t.Fatalf("samples %d: %v", samples, err)
		}
		sys, tEnd, got, err := spec.BuildSystem()
		if err != nil {
			t.Fatalf("samples %d: %v", samples, err)
		}
		rows := 0
		if _, err := sim.RunStream(sys, tEnd, got, sim.SinkFunc(func(float64, []float64) { rows++ })); err != nil {
			t.Fatalf("samples %d: %v", samples, err)
		}
		if got != want || rows != want {
			t.Errorf("samples %d: resolved %d, streamed %d rows, want %d", samples, got, rows, want)
		}
	}
}
