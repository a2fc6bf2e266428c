package plf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"oocphylo/internal/bio"
	"oocphylo/internal/tree"
)

// refSumTableValues is the Newton terms loop as it ran before the
// exponentials were hoisted out of the pattern loop: exp(λ_k·r_c·t) is
// re-evaluated for every pattern and category, and every pattern takes
// the full lnL/+I tail. It stays here, and only here, as the
// cross-validation reference for the production kernels: two
// implementations of one formula, required to agree bit for bit.
func refSumTableValues[F Float](e *Engine, cs *compute[F], t float64) (lnl, d1, d2 float64) {
	k, C := e.nStates, e.nCat
	rates := e.M.Rates
	eval := e.M.Eval
	catW := 1.0 / float64(C)
	var expbuf [32]float64
	for i := 0; i < e.nPat; i++ {
		base := i * C * k
		var f, fp, fpp float64
		for c := 0; c < C; c++ {
			r := rates[c]
			for kk := 0; kk < k; kk++ {
				expbuf[kk] = math.Exp(eval[kk] * r * t)
			}
			tab := cs.sumTab[base+c*k : base+(c+1)*k]
			for kk := 0; kk < k; kk++ {
				lr := eval[kk] * r
				a := float64(tab[kk]) * expbuf[kk]
				f += a
				fp += a * lr
				fpp += a * lr * lr
			}
		}
		f *= catW
		fp *= catW
		fpp *= catW
		if f < math.SmallestNonzeroFloat64 {
			f = math.SmallestNonzeroFloat64
		}
		w := e.weights[i]
		lnGamma := math.Log(f) - float64(e.sumTabSc[i])*cs.logScale
		gp, gpp := fp/f, fpp/f
		q := gammaWeight(lnGamma, e.M.PInv, e.linv[i])
		lnl += w * mixInvariant(lnGamma, e.M.PInv, e.linv[i])
		d1 += w * q * gp
		d2 += w * (q*gpp - q*gp*q*gp)
	}
	return lnl, d1, d2
}

func (e *Engine) refSumTableValues(t float64) (lnl, d1, d2 float64) {
	if e.c32 != nil {
		return refSumTableValues(e, e.c32, t)
	}
	return refSumTableValues(e, e.c64, t)
}

// TestSumTableTermsMatchReference cross-checks the hoisted terms loop
// against the per-pattern-exp reference: (lnL, d1, d2) to the bit, per
// kernel set, precision, +I setting and worker count. The
// derivative-only pass must reproduce the full pass's d1/d2 bits, and
// the Newton objective must return the reference's derivatives whether
// it takes the derivative-only pass (pinv = 0) or the full one.
func TestSumTableTermsMatchReference(t *testing.T) {
	cases := []struct {
		dtype bio.DataType
		ncat  int
		sites int
		mode  string
		want  string
	}{
		{bio.DNA, 4, 1200, KernelAuto, "dna4"},
		{bio.DNA, 3, 1200, KernelAuto, "dna4"},
		{bio.DNA, 4, 1200, KernelGeneric, "generic"},
		{bio.DNA, 4, 1200, KernelBlocked, "blocked"},
		{bio.AA, 4, 700, KernelAuto, "aa20"},
		{bio.AA, 2, 700, KernelGeneric, "generic"},
		{bio.AA, 4, 700, KernelBlocked, "blocked"},
	}
	for ci, tc := range cases {
		for _, prec := range []string{PrecisionF64, PrecisionF32} {
			for _, pinv := range []float64{0, 0.25} {
				name := fmt.Sprintf("%v_c%d_%s_%s_pinv%g", tc.dtype, tc.ncat, tc.want, prec, pinv)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(7*ci + 1)))
					names := tipNames(8)
					tr, err := tree.RandomTopology(names, rng, 0.01, 0.6)
					if err != nil {
						t.Fatal(err)
					}
					pats := randomAlignment(t, names, tc.sites, rng, tc.dtype)
					if pats.NumPatterns() < 2*minPatternsPerWorker {
						t.Fatalf("%d patterns cannot split across 2 workers", pats.NumPatterns())
					}
					// Random alignments of this size are nearly all distinct
					// columns; draw multiplicities so the weighted tails
					// see weights that are not powers of two.
					for i := range pats.Weights {
						pats.Weights[i] = 1 + rng.Intn(9)
					}
					m := randomModel(t, rng, tc.dtype, false)
					if err := m.SetGamma(0.3+1.5*rng.Float64(), tc.ncat); err != nil {
						t.Fatal(err)
					}
					if err := m.SetInvariant(pinv); err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2} {
						e := newEngineP(t, tr.Clone(), pats, m, prec)
						if err := e.SetKernel(tc.mode); err != nil {
							t.Fatal(err)
						}
						if e.KernelName() != tc.want {
							t.Fatalf("mode %s selected %q, want %q", tc.mode, e.KernelName(), tc.want)
						}
						e.SetWorkers(workers)
						for _, ei := range []int{0, 3, len(e.T.Edges) - 1} {
							if err := e.prepareSumTable(e.T.Edges[ei]); err != nil {
								t.Fatal(err)
							}
							for _, tl := range []float64{tree.MinBranchLength, 0.003, 0.07, 0.4, 2.5} {
								tag := fmt.Sprintf("workers=%d edge=%d t=%g", workers, ei, tl)
								rl, r1, r2 := e.refSumTableValues(tl)
								l, d1, d2 := e.sumTableValues(tl)
								if !bitsEq(l, rl) || !bitsEq(d1, r1) || !bitsEq(d2, r2) {
									t.Fatalf("%s: full pass (%.17g, %.17g, %.17g), reference (%.17g, %.17g, %.17g)",
										tag, l, d1, d2, rl, r1, r2)
								}
								if pinv <= 0 {
									o1, o2 := e.sumTableDerivs(tl)
									if !bitsEq(o1, d1) || !bitsEq(o2, d2) {
										t.Fatalf("%s: derivative-only (%.17g, %.17g), full (%.17g, %.17g)",
											tag, o1, o2, d1, d2)
									}
								}
								if r2 >= 0 {
									r2 = math.NaN()
								}
								n1, n2 := e.fdfFn(tl)
								if !bitsEq(n1, r1) || !bitsEq(n2, r2) {
									t.Fatalf("%s: Newton objective (%.17g, %.17g), reference (%.17g, %.17g)",
										tag, n1, n2, r1, r2)
								}
							}
						}
						e.Close()
					}
				})
			}
		}
	}
}
