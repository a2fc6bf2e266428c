package plf

import (
	"math"
	"time"

	"oocphylo/internal/mathx"
	"oocphylo/internal/obs"
	"oocphylo/internal/tree"
)

// Branch-length optimisation via analytic derivatives.
//
// At a branch {p, q} of length t the per-pattern, per-category site
// likelihood is
//
//	f_ic(t) = Σ_s π_s · x_p[i,c,s] · (P(r_c·t) · x_q[i,c,·])_s .
//
// Substituting P = V·exp(Λrt)·V⁻¹ gives f_ic(t) = Σ_k A_ick · e^{λ_k·r_c·t}
// with the branch-independent sum table
//
//	A_ick = (Σ_s π_s·x_p[s]·V[s,k]) · (Σ_j V⁻¹[k,j]·x_q[j]) ,
//
// so a Newton iteration on t costs O(nPat·nCat·k) with no further
// vector accesses — which is why branch optimisation touches only the
// two endpoint vectors, the access-locality property the paper leans on
// in §4.2. (RAxML's sumGAMMA/coreGTRGAMMA functions implement the same
// factorisation.) The factor e^{λ_k·r_c·t} does not depend on the
// pattern, so each evaluation at a length t fills one nCat×k table of
// exponentials before the pattern loop: O(nCat·k) transcendentals per
// length instead of O(nPat·nCat·k).
//
// In f32 mode the sum table itself is float32 (it scales with nPat like
// a vector), but the exponentials and every Newton-side term run in
// float64 on widened table entries — the same tail-precision rule the
// evaluate kernels follow.

// buildSumTable fills the compute's sumTab for edge and records the
// combined scale counters in e.sumTabSc. Both endpoint vectors must be
// valid toward each other (call Traverse first).
func (e *Engine) buildSumTable(edge *tree.Edge) error {
	if e.c32 != nil {
		return buildSumTableF(e, e.c32, edge)
	}
	return buildSumTableF(e, e.c64, edge)
}

func buildSumTableF[F Float](e *Engine, cs *compute[F], edge *tree.Edge) error {
	e.Stats.SumTables++
	e.eobs.sumTables.Inc()
	var stStart time.Time
	if e.eobs.on {
		stStart = time.Now()
	}
	cs.syncModel(e)
	a := &cs.sa
	*a = sumArgs[F]{nm: len(e.maskList)}
	p, q := edge.N[0], edge.N[1]
	var buf []float64
	var err error
	if p.IsTip() {
		a.codeP = e.tipCode[p.Index]
	} else {
		np := 0
		if !q.IsTip() {
			e.pinsL[0] = e.vi(q)
			np = 1
		}
		buf, err = e.prov.Vector(e.vi(p), false, e.pinsL[:np]...)
		if err != nil {
			return err
		}
		a.xp = vecView[F](buf, e.vecLen)
	}
	if q.IsTip() {
		a.codeQ = e.tipCode[q.Index]
	} else {
		np := 0
		if !p.IsTip() {
			e.pinsR[0] = e.vi(p)
			np = 1
		}
		buf, err = e.prov.Vector(e.vi(q), false, e.pinsR[:np]...)
		if err != nil {
			return err
		}
		a.xq = vecView[F](buf, e.vecLen)
	}
	for i := range e.sumTabSc {
		e.sumTabSc[i] = 0
	}
	if a.xp != nil {
		for i, s := range e.scales[e.vi(p)] {
			e.sumTabSc[i] += s
		}
	}
	if a.xq != nil {
		for i, s := range e.scales[e.vi(q)] {
			e.sumTabSc[i] += s
		}
	}

	e.parallelFor(e.nPat, cs.saBody)
	if e.eobs.on {
		dur := time.Since(stStart)
		e.eobs.sumTableLat.Observe(dur.Seconds())
		e.traceSpan(obs.OpSumTable, -1, stStart, dur)
	}
	return nil
}

// sumTableValues returns (lnL, dlnL/dt, d²lnL/dt²) at branch length t
// from the current sum table. Workers fill per-pattern terms; the
// reduction is sequential in pattern order, so results are
// bit-identical for any worker count.
func (e *Engine) sumTableValues(t float64) (lnl, d1, d2 float64) {
	if e.c32 != nil {
		return sumTableValuesF(e, e.c32, t, true)
	}
	return sumTableValuesF(e, e.c64, t, true)
}

// sumTableDerivs is the derivative-only pass: (dlnL/dt, d²lnL/dt²) at
// t, skipping the per-pattern logarithm and +I mixture that only lnL
// needs. Valid only without the +I mixture (M.PInv <= 0), where the
// Γ-component weight q is exactly 1 and the full pass's derivative
// expressions reduce to these bit for bit.
func (e *Engine) sumTableDerivs(t float64) (d1, d2 float64) {
	if e.c32 != nil {
		_, d1, d2 = sumTableValuesF(e, e.c32, t, false)
	} else {
		_, d1, d2 = sumTableValuesF(e, e.c64, t, false)
	}
	return d1, d2
}

// sumTableValuesF fills the length-t exponential table, fans the
// pattern loop out and reduces the terms; lnl stays 0 when full is
// false.
func sumTableValuesF[F Float](e *Engine, cs *compute[F], t float64, full bool) (lnl, d1, d2 float64) {
	k, C := e.nStates, e.nCat
	rates, eval := e.M.Rates, e.M.Eval
	for c := 0; c < C; c++ {
		r := rates[c]
		for kk := 0; kk < k; kk++ {
			cs.lrTab[c*k+kk] = eval[kk] * r
			cs.expTab[c*k+kk] = math.Exp(eval[kk] * r * t)
		}
	}
	cs.svFull = full
	e.parallelFor(e.nPat, cs.svBody)
	terms := e.siteBuf[:3*e.nPat]
	for i := 0; i < e.nPat; i++ {
		if full {
			lnl += terms[3*i]
		}
		d1 += terms[3*i+1]
		d2 += terms[3*i+2]
	}
	return lnl, d1, d2
}

// sumTableTerms is the Newton terms loop, shared by every kernel set:
// for patterns [lo, hi) it stores the raw category sums
//
//	(f, f', f'') = Σ_ck A_ick·e^{λ_k·r_c·t}·(1, λ_k·r_c, (λ_k·r_c)²)
//
// into e.siteBuf, accumulated in category-major, eigenvalue-minor order
// from the compute's hoisted tables; finishTerms turns them into
// Newton terms. Sum-table entries widen to float64 before the
// exponential-weighted accumulation, so only the table itself carries
// reduced precision in f32 mode.
func sumTableTerms[F Float](e *Engine, cs *compute[F], lo, hi int) {
	ck := e.nCat * e.nStates
	lr, ex := cs.lrTab[:ck], cs.expTab[:ck]
	for i := lo; i < hi; i++ {
		tab := cs.sumTab[i*ck:][:ck]
		var f, fp, fpp float64
		for j, x := range tab {
			a := float64(x) * ex[j]
			l := lr[j]
			f += a
			fp += a * l
			fpp += a * l * l
		}
		sums := e.siteBuf[3*i:][:3]
		sums[0], sums[1], sums[2] = f, fp, fpp
	}
}

// finishTerms turns the raw category sums sumTableTerms left in
// e.siteBuf for patterns [lo, hi) into weighted (lnL, d1, d2) terms, in
// place — or only (d1, d2) on a derivative-only pass.
func finishTerms[F Float](e *Engine, cs *compute[F], lo, hi int) {
	catW := cs.catW
	terms := e.siteBuf
	if !cs.svFull {
		for i := lo; i < hi; i++ {
			tm := terms[3*i:][:3]
			f, fp, fpp := tm[0]*catW, tm[1]*catW, tm[2]*catW
			if f < math.SmallestNonzeroFloat64 {
				f = math.SmallestNonzeroFloat64
			}
			w := e.weights[i]
			gp, gpp := fp/f, fpp/f
			// q == 1 without +I: w*q*gp == w*gp and
			// q*gpp - q*gp*q*gp == gpp - gp*gp exactly, so these are
			// the full pass's bits.
			tm[1] = w * gp
			tm[2] = w * (gpp - gp*gp)
		}
		return
	}
	for i := lo; i < hi; i++ {
		tm := terms[3*i:][:3]
		f, fp, fpp := tm[0]*catW, tm[1]*catW, tm[2]*catW
		if f < math.SmallestNonzeroFloat64 {
			f = math.SmallestNonzeroFloat64
		}
		w := e.weights[i]
		lnGamma := math.Log(f) - float64(e.sumTabSc[i])*cs.logScale
		gp, gpp := fp/f, fpp/f
		// +I mixture: the invariant component is branch-length
		// independent, so derivatives pick up the Γ-component
		// posterior weight q (1 when the mixture is off).
		q := gammaWeight(lnGamma, e.M.PInv, e.linv[i])
		tm[0] = w * mixInvariant(lnGamma, e.M.PInv, e.linv[i])
		tm[1] = w * q * gp
		tm[2] = w * (q*gpp - q*gp*q*gp)
	}
}

// prepareSumTable runs the traversal and builds the sum table for
// edge, healing corrupt endpoint reads the same way LogLikelihoodAt
// does: invalidate the corrupt node, re-plan, recompute.
func (e *Engine) prepareSumTable(edge *tree.Edge) error {
	budget := e.recoveryBudget()
	attempts := 0
	for {
		if err := e.Traverse(edge); err != nil {
			return err
		}
		err := e.buildSumTable(edge)
		if err == nil {
			return nil
		}
		if !e.recoverCorruption(err, &attempts, budget) {
			return err
		}
	}
}

// OptimizeBranch Newton-optimises the length of edge, leaving both
// endpoint vectors valid and the edge set to the best length found. It
// returns the log-likelihood at the optimised length. The optimum is
// clamped to [tree.MinBranchLength, tree.MaxBranchLength]; if Newton
// lands somewhere worse than the starting point (possible on plateaus)
// the original length is kept. The Newton objective is the engine's
// pre-bound fdfFn, so the whole call allocates nothing.
func (e *Engine) OptimizeBranch(edge *tree.Edge) (float64, error) {
	if err := e.prepareSumTable(edge); err != nil {
		return 0, err
	}
	t0 := edge.Length
	lnl0, _, _ := e.sumTableValues(t0)
	var nStart time.Time
	if e.eobs.on {
		nStart = time.Now()
	}
	t1, _ := mathx.Newton(e.fdfFn, t0, tree.MinBranchLength, tree.MaxBranchLength, 1e-8, 32)
	if e.eobs.on {
		dur := time.Since(nStart)
		e.eobs.newtonLat.Observe(dur.Seconds())
		e.traceSpan(obs.OpNewton, -1, nStart, dur)
	}
	lnl1, _, _ := e.sumTableValues(t1)
	if lnl1 >= lnl0 {
		edge.Length = t1
		return lnl1, nil
	}
	return lnl0, nil
}

// EvaluateAtLength returns the log-likelihood that the current sum
// table predicts for the given branch length. Exposed for tests (it
// must agree with a fresh evaluation after setting the length).
func (e *Engine) EvaluateAtLength(edge *tree.Edge, t float64) (float64, error) {
	if err := e.prepareSumTable(edge); err != nil {
		return 0, err
	}
	lnl, _, _ := e.sumTableValues(t)
	return lnl, nil
}
