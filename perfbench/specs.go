package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

// families lists the six scenario families.
var families = []string{"pom", "kuramoto", "continuum", "torus2d", "linstab", "cluster"}

// rotation is the serve request mix: serial k is a variant of
// rotation[k%7], so each family recurs round robin and kuramoto takes a
// second slot. With an even six-way split the median latency would sit
// exactly between the third and fourth family's latency bands and jump
// between them from run to run; with seven slots every reported
// percentile falls inside one family's band.
var rotation = append(families[:len(families):len(families)], "kuramoto")

// perturbation names the one numeric field a family's variants change.
// Float fields scale by at most 4% and integer fields are random seeds,
// so every variant is a distinct cache key while its cost stays that of
// the example it comes from.
type perturbation struct {
	path    []any // JSON path: object keys and array indices
	integer bool
}

var perturbations = map[string]perturbation{
	"pom":       {path: []any{"delays", 0, "duration"}},
	"kuramoto":  {path: []any{"kuramoto", "seed"}, integer: true},
	"continuum": {path: []any{"continuum", "pulse_amp"}},
	"torus2d":   {path: []any{"torus2d", "perturb_seed"}, integer: true},
	"linstab":   {path: []any{"linstab", "to"}},
	"cluster":   {path: []any{"cluster", "delays", 0, "extra"}},
}

// specGen derives request bodies from the workload seed. The base
// documents are the repo's examples/scenarios/<family>.json; the program
// under test only ever sees the generated variants.
type specGen struct {
	base  map[string][]byte
	rows  map[string]int // sample rows of each family's responses
	off   float64        // seed-derived phase of the float perturbations
	ibase int            // seed-derived base of the integer perturbations
}

func newSpecGen(root string, seed uint64) (*specGen, error) {
	g := &specGen{base: make(map[string][]byte), rows: make(map[string]int)}
	for _, fam := range families {
		b, err := os.ReadFile(filepath.Join(root, "examples", "scenarios", fam+".json"))
		if err != nil {
			return nil, err
		}
		spec, err := decode(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fam, err)
		}
		if spec.Samples < 2 {
			return nil, fmt.Errorf("%s: example sets no explicit sample count", fam)
		}
		g.base[fam] = b
		g.rows[fam] = spec.Samples
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	g.off = rng.Float64()
	g.ibase = 1000 + int(seed%100_000)*100_000
	return g, nil
}

// familyOf returns the family of request serial k.
func familyOf(k int) string { return rotation[k%len(rotation)] }

// spec returns the request body of serial k. Distinct serials give
// distinct specs: float fields step by the golden-ratio sequence, which
// never repeats, and integer fields count up from the seed's base.
func (g *specGen) spec(k int) ([]byte, error) {
	fam := familyOf(k)
	var doc any
	if err := json.Unmarshal(g.base[fam], &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", fam, err)
	}
	p := perturbations[fam]
	var val any
	if p.integer {
		val = g.ibase + k
	} else {
		_, u := math.Modf(g.off + float64(k)*0.6180339887498949)
		base, err := lookup(doc, p.path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fam, err)
		}
		val = base * (1 + 0.04*u)
	}
	if err := assign(doc, p.path, val); err != nil {
		return nil, fmt.Errorf("%s: %w", fam, err)
	}
	return json.Marshal(doc)
}

// decode parses a generated body the way the service does.
func decode(body []byte) (*scenario.Spec, error) {
	return scenario.Load(bytes.NewReader(body))
}

func walk(doc any, path []any) (parent any, last any, err error) {
	cur := doc
	for _, step := range path[:len(path)-1] {
		switch s := step.(type) {
		case string:
			m, ok := cur.(map[string]any)
			if !ok {
				return nil, nil, fmt.Errorf("path %v: %q is not in an object", path, s)
			}
			cur = m[s]
		case int:
			a, ok := cur.([]any)
			if !ok || s >= len(a) {
				return nil, nil, fmt.Errorf("path %v: index %d out of range", path, s)
			}
			cur = a[s]
		}
	}
	return cur, path[len(path)-1], nil
}

func lookup(doc any, path []any) (float64, error) {
	parent, last, err := walk(doc, path)
	if err != nil {
		return 0, err
	}
	m, ok := parent.(map[string]any)
	if !ok {
		return 0, fmt.Errorf("path %v: parent is not an object", path)
	}
	v, ok := m[last.(string)].(float64)
	if !ok {
		return 0, fmt.Errorf("path %v: not a number", path)
	}
	return v, nil
}

func assign(doc any, path []any, val any) error {
	parent, last, err := walk(doc, path)
	if err != nil {
		return err
	}
	m, ok := parent.(map[string]any)
	if !ok {
		return fmt.Errorf("path %v: parent is not an object", path)
	}
	m[last.(string)] = val
	return nil
}

// sweepGrid is the sweep-fleet point set: a sigma × coupling grid of the
// POM desync shape (N=8, 201 samples, t_end 40), placed by the seed.
type sweepGrid struct {
	nSigma, nCoupling int
	sigma0, coupling0 float64
}

func newSweepGrid(seed uint64, nSigma, nCoupling int) sweepGrid {
	rng := rand.New(rand.NewPCG(seed, 0x9d1d))
	return sweepGrid{
		nSigma: nSigma, nCoupling: nCoupling,
		// The seed shifts the grid by under a hundredth of a step, so
		// every seed sweeps new points at the same cost.
		sigma0:    0.6 + 0.0005*rng.Float64(),
		coupling0: 1.0 + 0.001*rng.Float64(),
	}
}

func (g sweepGrid) points() int { return g.nSigma * g.nCoupling }

// params returns point i's [sigma, coupling].
func (g sweepGrid) params(i int) []float64 {
	a, b := i%g.nSigma, i/g.nSigma
	return []float64{
		g.sigma0 + 1.6*float64(a)/float64(g.nSigma),
		g.coupling0 + 2.5*float64(b)/float64(g.nCoupling),
	}
}

// pointSpec is the scenario of sweep point i.
func pointSpec(i int, params []float64) *scenario.Spec {
	return &scenario.Spec{
		Name:             "sweep-point",
		N:                8,
		TComp:            0.8,
		TComm:            0.2,
		Potential:        scenario.PotentialSpec{Kind: "desync", Sigma: params[0]},
		Offsets:          []int{-1, 1},
		CouplingOverride: params[1],
		Delays:           []scenario.DelaySpec{{Rank: 2, Start: 5, Duration: 1, Extra: 20}},
		Init:             "random",
		PerturbAmp:       0.02,
		PerturbSeed:      uint64(i + 1),
		TEnd:             40,
		Samples:          201,
	}
}
