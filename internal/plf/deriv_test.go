package plf

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/model"
	"oocphylo/internal/obs"
	"oocphylo/internal/tree"
)

func TestSumTableMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	names := tipNames(10)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 70, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	for _, edge := range []*tree.Edge{tr.Edges[0], tr.Edges[3], tr.Edges[len(tr.Edges)-1]} {
		direct, err := e.LogLikelihoodAt(edge)
		if err != nil {
			t.Fatal(err)
		}
		viaTable, err := e.EvaluateAtLength(edge, edge.Length)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct-viaTable) > 1e-8*(1+math.Abs(direct)) {
			t.Fatalf("edge %d: evaluate %v, sum table %v", edge.Index, direct, viaTable)
		}
	}
}

func TestSumTablePredictsOtherLengths(t *testing.T) {
	// The sum table is built once but must predict the likelihood at ANY
	// length of that branch; verify against re-evaluation.
	rng := rand.New(rand.NewSource(43))
	names := tipNames(8)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 50, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	edge := tr.Edges[2]
	for _, bt := range []float64{0.01, 0.1, 0.5, 2.0} {
		viaTable, err := e.EvaluateAtLength(edge, bt)
		if err != nil {
			t.Fatal(err)
		}
		old := edge.Length
		edge.Length = bt
		// Endpoint vectors do not depend on this edge, so no traversal
		// invalidation is needed — that invariance is itself under test.
		direct, err := e.evaluate(edge)
		if err != nil {
			t.Fatal(err)
		}
		edge.Length = old
		if math.Abs(direct-viaTable) > 1e-8*(1+math.Abs(direct)) {
			t.Fatalf("t=%v: evaluate %v, sum table %v", bt, direct, viaTable)
		}
	}
}

func TestDerivativesMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	names := tipNames(9)
	tr, _ := tree.RandomTopology(names, rng, 0.03, 0.5)
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	edge := tr.Edges[1]
	if err := e.Traverse(edge); err != nil {
		t.Fatal(err)
	}
	if err := e.buildSumTable(edge); err != nil {
		t.Fatal(err)
	}
	for _, bt := range []float64{0.05, 0.2, 0.8} {
		_, d1, d2 := e.sumTableValues(bt)
		// h for the second difference is much larger: |lnL| ~ 1e3 means
		// the three-point stencil loses ~13 digits to cancellation at
		// h = 1e-6 but is fine at 1e-4.
		const h1, h2 = 1e-6, 1e-4
		lp, _, _ := e.sumTableValues(bt + h1)
		lm, _, _ := e.sumTableValues(bt - h1)
		fd1 := (lp - lm) / (2 * h1)
		lp2, _, _ := e.sumTableValues(bt + h2)
		lm2, _, _ := e.sumTableValues(bt - h2)
		l0, _, _ := e.sumTableValues(bt)
		fd2 := (lp2 - 2*l0 + lm2) / (h2 * h2)
		if math.Abs(d1-fd1) > 1e-4*(1+math.Abs(fd1)) {
			t.Errorf("t=%v: d1 = %v, finite diff %v", bt, d1, fd1)
		}
		if math.Abs(d2-fd2) > 1e-3*(1+math.Abs(fd2)) {
			t.Errorf("t=%v: d2 = %v, finite diff %v", bt, d2, fd2)
		}
	}
}

func TestOptimizeBranchTwoTaxonAnalytic(t *testing.T) {
	// ML distance between two sequences under JC: with mismatch fraction
	// p, t* = -3/4 ln(1 - 4p/3).
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	var s1, s2 strings.Builder
	mismatches, total := 12, 100
	for i := 0; i < total; i++ {
		s1.WriteByte('A')
		if i < mismatches {
			s2.WriteByte('C')
		} else {
			s2.WriteByte('A')
		}
	}
	_ = a.AddString("x", s1.String())
	_ = a.AddString("y", s2.String())
	pats, _ := bio.Compress(a)
	tr := tree.NewPair("x", "y", 0.3)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	lnl, err := e.OptimizeBranch(tr.Edges[0])
	if err != nil {
		t.Fatal(err)
	}
	p := float64(mismatches) / float64(total)
	want := -0.75 * math.Log(1-4*p/3)
	if math.Abs(tr.Edges[0].Length-want) > 1e-6 {
		t.Errorf("optimised length %v, want %v", tr.Edges[0].Length, want)
	}
	// And the likelihood at the optimum beats nearby lengths.
	for _, delta := range []float64{-0.01, 0.01} {
		tr.Edges[0].Length = want + delta
		l, err := e.LogLikelihoodAt(tr.Edges[0])
		if err != nil {
			t.Fatal(err)
		}
		if l > lnl+1e-9 {
			t.Errorf("length %v has higher lnL than the 'optimum'", want+delta)
		}
	}
}

func TestOptimizeBranchNeverDecreasesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	names := tipNames(12)
	tr, _ := tree.RandomTopology(names, rng, 0.02, 0.6)
	pats := randomAlignment(t, names, 60, rng, bio.DNA)
	m := randomModel(t, rng, bio.DNA, true)
	e := newEngine(t, tr, pats, m)
	before, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	cur := before
	for _, edge := range tr.Edges {
		lnl, err := e.OptimizeBranch(edge)
		if err != nil {
			t.Fatal(err)
		}
		if lnl < cur-1e-6 {
			t.Fatalf("edge %d: optimisation decreased lnL from %v to %v", edge.Index, cur, lnl)
		}
		cur = lnl
	}
	if cur < before {
		t.Errorf("full branch sweep decreased lnL: %v -> %v", before, cur)
	}
	// The optimised likelihoods the sum table reported must agree with a
	// fresh evaluation of the final tree.
	fresh, err := e.LogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fresh-cur) > 1e-7*(1+math.Abs(fresh)) {
		t.Errorf("sum-table lnL %v disagrees with fresh evaluation %v", cur, fresh)
	}
}

func TestOptimizeBranchClampsAtBounds(t *testing.T) {
	// Identical sequences: ML branch length is 0, clamped to the floor.
	a := bio.NewAlignment(bio.NewDNAAlphabet())
	_ = a.AddString("x", "ACGTACGTACGT")
	_ = a.AddString("y", "ACGTACGTACGT")
	pats, _ := bio.Compress(a)
	tr := tree.NewPair("x", "y", 0.5)
	m, _ := model.NewJC(4)
	e := newEngine(t, tr, pats, m)
	if _, err := e.OptimizeBranch(tr.Edges[0]); err != nil {
		t.Fatal(err)
	}
	if tr.Edges[0].Length > tree.MinBranchLength*1.01 {
		t.Errorf("identical sequences should clamp to the floor, got %v", tr.Edges[0].Length)
	}
}

// TestOptimizeBranchTimesNewton checks that an instrumented engine
// records each branch's Newton solve: one plf.newton_seconds
// observation and one "newton" span on the compute lane per
// OptimizeBranch call.
func TestOptimizeBranchTimesNewton(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := tipNames(6)
	tr, err := tree.RandomTopology(names, rng, 0.02, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pats := randomAlignment(t, names, 200, rng, bio.DNA)
	e := newEngine(t, tr, pats, randomModel(t, rng, bio.DNA, true))
	reg, trc := obs.NewRegistry(), obs.NewTracer(256)
	e.Instrument(reg, trc)
	for _, edge := range e.T.Edges[:3] {
		if _, err := e.OptimizeBranch(edge); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Histogram("plf.newton_seconds", nil).Count(); n != 3 {
		t.Errorf("plf.newton_seconds count %d, want 3", n)
	}
	spans := 0
	for _, ev := range trc.Events() {
		if ev.Op == obs.OpNewton {
			spans++
			if ev.TID != 0 || ev.Op.String() != "newton" || ev.Op.Cat() != "plf" {
				t.Errorf("newton span %+v (%s/%s), want compute lane, newton/plf", ev, ev.Op, ev.Op.Cat())
			}
		}
	}
	if spans != 3 {
		t.Errorf("%d newton spans, want 3", spans)
	}
}
