package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Vector-lifecycle tracing. Every interesting wall-time span — a
// demand fault-in, a background fetch, an eviction write-back, a
// newview, a recovery recompute — is recorded as one fixed-size Event
// in a bounded ring buffer. The ring makes pipeline behaviour
// *visible*: exported as Chrome trace_event JSON (chrome://tracing,
// https://ui.perfetto.dev) the compute lane and the I/O worker lanes
// sit one above the other, so prefetch overlap, stall gaps and
// recovery recomputation storms can be read straight off the timeline.

// EventOp identifies the operation a trace event spans.
type EventOp uint8

const (
	// OpFaultIn is a demand miss on the compute thread: pick a slot,
	// evict if needed, read the vector (unless skipped).
	OpFaultIn EventOp = iota
	// OpEvict is an eviction write-back issued on the compute thread
	// (synchronous manager) or the queueing of one (async).
	OpEvict
	// OpPrefetch is a Prefetch stage-in: the store read itself under the
	// synchronous manager, just the enqueue under the async pipeline.
	OpPrefetch
	// OpJoinWait is compute-thread time spent waiting for an in-flight
	// background fetch (the latency the pipeline could not hide).
	OpJoinWait
	// OpFetch is a background fetch worker servicing one stage-in.
	OpFetch
	// OpWriteBack is the background writer landing one queued write.
	OpWriteBack
	// OpNewview is one ancestral-vector computation.
	OpNewview
	// OpEvaluate is one log-likelihood evaluation.
	OpEvaluate
	// OpSumTable is one derivative sum-table construction.
	OpSumTable
	// OpRecovery marks a corrupt vector being invalidated for recompute.
	OpRecovery
	// OpRound is one SPR/NNI improvement round of the search loop.
	OpRound
	// OpNewton is one branch's Newton solve over its sum table.
	OpNewton
	numOps
)

var opNames = [numOps]string{
	OpFaultIn:   "fault-in",
	OpEvict:     "evict",
	OpPrefetch:  "prefetch",
	OpJoinWait:  "join-wait",
	OpFetch:     "bg-fetch",
	OpWriteBack: "bg-write",
	OpNewview:   "newview",
	OpEvaluate:  "evaluate",
	OpSumTable:  "sum-table",
	OpRecovery:  "recovery",
	OpRound:     "round",
	OpNewton:    "newton",
}

var opCats = [numOps]string{
	OpFaultIn:   "ooc",
	OpEvict:     "ooc",
	OpPrefetch:  "ooc",
	OpJoinWait:  "pipe",
	OpFetch:     "pipe",
	OpWriteBack: "pipe",
	OpNewview:   "plf",
	OpEvaluate:  "plf",
	OpSumTable:  "plf",
	OpRecovery:  "plf",
	OpRound:     "search",
	OpNewton:    "plf",
}

// String returns the op's trace name.
func (op EventOp) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op-%d", int(op))
}

// Cat returns the op's category (the layer that emitted it).
func (op EventOp) Cat() string {
	if int(op) < len(opCats) {
		return opCats[op]
	}
	return "misc"
}

// Event is one typed trace span. Fixed size, no pointers: recording an
// event never allocates, so the ring is warm after construction.
type Event struct {
	// Op is the operation kind.
	Op EventOp
	// TID is the lane: 0 is the compute thread, background I/O workers
	// get their own lanes (see Tracer.SetLaneName).
	TID int32
	// VID is the vector index the operation touched (-1 when N/A).
	VID int32
	// Slot is the RAM slot involved (-1 when N/A).
	Slot int32
	// Start is nanoseconds since the tracer's epoch.
	Start int64
	// Dur is the span length in nanoseconds (0 for instant events).
	Dur int64
}

// Tracer is a bounded ring of Events. When full, the oldest event is
// overwritten (the tail of a run is what a timeline reader wants). A
// nil *Tracer is a no-op on every method, so call sites need no flag.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	buf     []Event
	head    int   // next write position
	total   int64 // events ever emitted
	laneMu  sync.Mutex
	laneNam map[int32]string
}

// NewTracer returns a tracer whose ring holds capacity events
// (minimum 16). The full ring is allocated up front; Emit never
// allocates afterwards.
func NewTracer(capacity int) *Tracer {
	if capacity < 16 {
		capacity = 16
	}
	return &Tracer{
		epoch:   time.Now(),
		buf:     make([]Event, capacity),
		laneNam: make(map[int32]string),
	}
}

// Enabled reports whether events will be recorded. Call sites use it to
// gate the time.Now() needed to build a span:
//
//	if tr.Enabled() { start = time.Now() }
func (t *Tracer) Enabled() bool { return t != nil }

// SetLaneName labels a TID lane in the exported timeline (e.g. 0 →
// "compute", 1 → "io-fetch-1").
func (t *Tracer) SetLaneName(tid int32, name string) {
	if t == nil {
		return
	}
	t.laneMu.Lock()
	t.laneNam[tid] = name
	t.laneMu.Unlock()
}

// Emit records one span. Safe from any goroutine; never allocates.
func (t *Tracer) Emit(op EventOp, tid, vid, slot int32, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.head] = Event{
		Op:    op,
		TID:   tid,
		VID:   vid,
		Slot:  slot,
		Start: start.Sub(t.epoch).Nanoseconds(),
		Dur:   dur.Nanoseconds(),
	}
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	t.total++
	t.mu.Unlock()
}

// Len returns the number of events currently held (≤ capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(min64(t.total, int64(len(t.buf))))
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events the ring overwrote.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return max64(0, t.total-int64(len(t.buf)))
}

// Events returns a copy of the held events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min64(t.total, int64(len(t.buf))))
	out := make([]Event, 0, n)
	start := 0
	if t.total > int64(len(t.buf)) {
		start = t.head // ring wrapped: oldest is the next overwrite target
	}
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Epoch returns the tracer's time origin (all event timestamps are
// nanoseconds since it). Zero time for a nil tracer.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// WriteChromeTrace writes the held events as Chrome trace_event JSON
// (the "JSON Object Format": {"traceEvents": [...]}) loadable in
// chrome://tracing and Perfetto. Spans are complete ("ph":"X") events
// with microsecond timestamps; lanes carry thread_name metadata. For
// the span-aware merged export see the package-level WriteChromeTrace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	if t != nil {
		t.writeChromeEvents(bw, true)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

// writeChromeEvents emits the ring's events (pid 1) into an open
// traceEvents array; first reports whether no element has been written
// yet, and the updated flag is returned.
func (t *Tracer) writeChromeEvents(bw *bufio.Writer, first bool) bool {
	events := t.Events()
	// Lane metadata first, sorted for deterministic output.
	t.laneMu.Lock()
	tids := make([]int, 0, len(t.laneNam))
	for tid := range t.laneNam {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		fmt.Fprintf(bw, "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}}",
			tid, t.laneNam[int32(tid)])
	}
	t.laneMu.Unlock()
	for _, e := range events {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		// Instant events use ph:"i" with a scope; spans ph:"X".
		if e.Dur <= 0 {
			fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"vid\":%d,\"slot\":%d}}",
				e.Op.String(), e.Op.Cat(), e.TID, float64(e.Start)/1e3, e.VID, e.Slot)
			continue
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"vid\":%d,\"slot\":%d}}",
			e.Op.String(), e.Op.Cat(), e.TID, float64(e.Start)/1e3, float64(e.Dur)/1e3, e.VID, e.Slot)
	}
	return first
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
