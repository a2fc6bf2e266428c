package plf

// Observability wiring for the likelihood engine. Unlike the ooc
// manager's publisher-mirrored snapshot counters, the engine's Stats is
// a plain exported struct mutated on the compute goroutine — a
// publisher reading it from the debug endpoint's goroutine would be a
// data race. The counters are therefore mirrored natively: every
// Stats++ site also bumps a nil-safe registry counter, which costs one
// nil check when uninstrumented and one atomic add when on.

import (
	"time"

	"oocphylo/internal/obs"
)

// engineObs holds the engine's instruments; the zero value is the
// uninstrumented state (all nil, on=false).
type engineObs struct {
	// on gates the time.Now() calls around kernel invocations.
	on     bool
	tracer *obs.Tracer
	// Mirrors of the Stats struct, updated at the same sites.
	newviews, evaluations, sumTables *obs.Counter
	newtonIters, recoveries          *obs.Counter
	pcHits, pcMisses, pcDrops        *obs.Counter
	// Per-operation latencies, labelled by the active kernel via the
	// registry's plf.kernel info key.
	newviewLat, evalLat, sumTableLat *obs.Histogram
	// newtonLat times each branch's Newton solve in OptimizeBranch.
	newtonLat *obs.Histogram
}

// Instrument attaches reg and tr to the engine (either may be nil).
// Call it after SetKernel (the kernel name is recorded as run info) and
// before the first evaluation; at most once.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if e.eobs.on || (reg == nil && tr == nil) {
		return
	}
	e.eobs = engineObs{
		on:          true,
		tracer:      tr,
		newviews:    reg.Counter("plf.newviews"),
		evaluations: reg.Counter("plf.evaluations"),
		sumTables:   reg.Counter("plf.sum_tables"),
		newtonIters: reg.Counter("plf.newton_iters"),
		recoveries:  reg.Counter("plf.recoveries"),
		pcHits:      reg.Counter("plf.pcache_hits"),
		pcMisses:    reg.Counter("plf.pcache_misses"),
		pcDrops:     reg.Counter("plf.pcache_drops"),
		newviewLat:  reg.Histogram("plf.newview_seconds", nil),
		evalLat:     reg.Histogram("plf.evaluate_seconds", nil),
		sumTableLat: reg.Histogram("plf.sum_table_seconds", nil),
		newtonLat:   reg.Histogram("plf.newton_seconds", nil),
	}
	reg.SetInfo("plf.kernel", e.KernelName())
	reg.SetInfo("plf.kernel_mode", e.KernelMode())
	tr.SetLaneName(0, "compute")
}

// traceSpan emits one engine trace event on the compute lane.
func (e *Engine) traceSpan(op obs.EventOp, vi int, start time.Time, dur time.Duration) {
	e.eobs.tracer.Emit(op, 0, int32(vi), -1, start, dur)
}
