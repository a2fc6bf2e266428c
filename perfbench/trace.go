package main

// The traced run's instrumentation lives entirely here, outside the
// program: wrappers around each layer's public interface record one
// span per call, and the recorder keeps the spans in memory until the
// run ends. The wrappers forward every optional interface the layers
// type-assert, so the traced stack computes exactly what the shipped
// one does (perfbench_test.go proves it bit for bit).

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"time"

	"oocphylo/internal/obs"
	"oocphylo/internal/ooc"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kTraversal   spanKind = iota // plf.Engine.FullTraversal
	kEvaluate                    // plf.Engine.LogLikelihoodAt
	kVector                      // plf.VectorProvider.Vector on the manager
	kPrefetch                    // Prefetch on the manager
	kStoreRead                   // ooc.Store reads on the manager's store
	kStoreWrite                  // ooc.Store writes on the manager's store
	kStoreSync                   // Sync and Close on the manager's store
	kGet                         // reads of the remote handed to the tier
	kPut                         // writes of the remote handed to the tier
	kRemoteOther                 // Sync and Close on that remote
	numKinds
)

var kindNames = [numKinds]string{
	"plf.traversal", "plf.evaluate", "ooc.vector", "ooc.prefetch",
	"store.read", "store.write", "store.sync", "tier.get", "tier.put", "tier.other",
}

// span is one recorded call. parent indexes the span it ran inside
// (-1 for none); start and end are offsets from the recorder's origin.
type span struct {
	kind       spanKind
	background bool // ran on a goroutine other than the engine's
	parent     int32
	start, end time.Duration
}

// recorder collects the spans of one traced run. The engine and its
// provider run on one goroutine, so their spans nest on one stack. A
// synchronous manager calls its store from that goroutine too, inside
// a provider call: those store spans are children of the open provider
// span. Under the async pipeline, and always for the tier's remote, the
// calls come from worker goroutines; those spans are recorded as
// background spans without a parent.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int32 // open engine-goroutine spans
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now()}
}

// begin opens a span on the engine goroutine.
func (r *recorder) begin(k spanKind) int32 {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.add(span{kind: k, start: now, end: -1})
	r.stack = append(r.stack, id)
	return id
}

// beginLayer opens a span for a store or remote call, which may run
// on any goroutine: inline ones run on the engine goroutine.
func (r *recorder) beginLayer(k spanKind, inline bool) int32 {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.add(span{kind: k, background: !inline, start: now, end: -1})
}

// add appends s, as a child of the innermost open engine-goroutine span
// unless s runs in the background; r.mu held.
func (r *recorder) add(s span) int32 {
	s.parent = -1
	if n := len(r.stack); n > 0 && !s.background {
		s.parent = r.stack[n-1]
	}
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// end closes span id; a span opened by begin must be the innermost
// open one.
func (r *recorder) end(id int32) {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	if n := len(r.stack); n > 0 && r.stack[n-1] == id {
		r.stack = r.stack[:n-1]
	}
}

// layerTotals summarises the spans by kind: call counts, total time,
// time covered by each kind's child spans, and every duration (for
// per-call medians).
type layerTotals struct {
	calls     [numKinds]int
	total     [numKinds]time.Duration
	childTime [numKinds]time.Duration
	durations [numKinds][]time.Duration
}

func (r *recorder) totals() layerTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lt layerTotals
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		lt.calls[s.kind]++
		lt.total[s.kind] += d
		lt.durations[s.kind] = append(lt.durations[s.kind], d)
		if s.parent >= 0 {
			lt.childTime[r.spans[s.parent].kind] += d
		}
	}
	return lt
}

// write saves the spans as a Chrome trace (chrome://tracing, Perfetto):
// one complete event per span, engine-goroutine spans on lane 1 and
// background spans on lane 2, with the parent span's index in args.
func (r *recorder) write(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int32 `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		tid := 1
		if s.background {
			tid = 2
		}
		events = append(events, event{
			Name: kindNames[s.kind], Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int32{"id": int32(i), "parent": s.parent},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedProvider wraps the manager the engine reads its vectors from.
// Embedding forwards every method the engine type-asserts on its
// provider (Prefetch, FetchCost, Degraded, SetContext, SetSpan) and the
// rest of the manager's surface unchanged; Vector and Prefetch are
// timed.
type tracedProvider struct {
	*ooc.Manager
	rec *recorder
}

func (p tracedProvider) Vector(vi int, write bool, pinned ...int) ([]float64, error) {
	id := p.rec.begin(kVector)
	defer p.rec.end(id)
	return p.Manager.Vector(vi, write, pinned...)
}

func (p tracedProvider) Prefetch(vi int, pinned ...int) error {
	id := p.rec.begin(kPrefetch)
	defer p.rec.end(id)
	return p.Manager.Prefetch(vi, pinned...)
}

// tracedStore wraps an ooc.Store and times its calls as reads, writes
// or other. It forwards every optional interface the ooc layer
// type-asserts on a store through the package's own helpers, which
// behave exactly as on the inner store: RangeStore, Syncer,
// FetchCoster, MemOverheader and Degrader.
type tracedStore struct {
	inner              ooc.Store
	vecLen             int
	rec                *recorder
	read, write, other spanKind
	// inline reports that the store's caller runs on the engine
	// goroutine (a synchronous manager's store).
	inline bool
}

func (s tracedStore) timed(k spanKind, f func() error) error {
	id := s.rec.beginLayer(k, s.inline)
	defer s.rec.end(id)
	return f()
}

func (s tracedStore) ReadVector(vi int, dst []float64) error {
	return s.timed(s.read, func() error { return s.inner.ReadVector(vi, dst) })
}

func (s tracedStore) WriteVector(vi int, src []float64) error {
	return s.timed(s.write, func() error { return s.inner.WriteVector(vi, src) })
}

func (s tracedStore) ReadRange(ctx context.Context, vi, count int, dst []float64) error {
	return s.timed(s.read, func() error { return ooc.ReadRangeOf(ctx, s.inner, s.vecLen, vi, count, dst) })
}

func (s tracedStore) WriteRange(ctx context.Context, vi, count int, src []float64) error {
	return s.timed(s.write, func() error { return ooc.WriteRangeOf(ctx, s.inner, s.vecLen, vi, count, src) })
}

func (s tracedStore) Sync() error {
	return s.timed(s.other, func() error { return ooc.SyncStore(s.inner) })
}

func (s tracedStore) Close() error {
	return s.timed(s.other, s.inner.Close)
}

func (s tracedStore) FetchCost(vi int) (time.Duration, bool) { return ooc.StoreFetchCost(s.inner, vi) }
func (s tracedStore) MemOverheadBytes() int64                { return ooc.StoreMemOverhead(s.inner) }
func (s tracedStore) Degraded() bool                         { return ooc.StoreDegraded(s.inner) }

// The interfaces the engine and the ooc layer look for must survive
// wrapping.
var (
	_ interface {
		Prefetch(int, ...int) error
		FetchCost(int) (time.Duration, bool)
		Degraded() bool
		SetContext(context.Context)
		SetSpan(*obs.Span)
	} = tracedProvider{}
	_ interface {
		ooc.RangeStore
		ooc.Syncer
		ooc.FetchCoster
		ooc.MemOverheader
		ooc.Degrader
	} = tracedStore{}
)
