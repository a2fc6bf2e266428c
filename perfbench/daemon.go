package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"oocphylo/internal/plf"
	"oocphylo/internal/service"
	"oocphylo/internal/tree"
)

// request is one scheduled daemon request.
type request struct {
	session int
	kind    reqKind
	edge    int
	length  float64 // kind lengthEval only
	due     time.Duration
}

type reqKind uint8

const (
	plainEval  reqKind = iota // Evaluate at the edge's own length
	lengthEval                // Evaluate at a hypothetical length (sum table)
	newview                   // Newview: full recompute, then evaluate
)

// hypotheticalLengths are the branch lengths lengthEval requests ask
// about; a small fixed set keeps the reference check cheap.
var hypotheticalLengths = []float64{0.005, 0.02, 0.05, 0.1, 0.2, 0.4}

// reply is one request's outcome, with offsets from the phase start.
type reply struct {
	req        request
	sent, done time.Duration
	rep        service.EvalReply
	err        error
}

// requestStream returns a generator of requests under sh's mix. The
// mix is drawn as a shuffled deck of 100 requests holding exactly the
// configured shares, so every 100 consecutive requests carry the same
// work; the seeded rng picks the order, sessions, edges and lengths.
func requestStream(rng *rand.Rand, sh daemonShape, edges int) func() request {
	var deck []reqKind
	return func() request {
		if len(deck) == 0 {
			deck = make([]reqKind, 100)
			for i := range deck {
				switch {
				case i < sh.newviewPct:
					deck[i] = newview
				case i < sh.newviewPct+sh.lengthPct:
					deck[i] = lengthEval
				}
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		r := request{kind: deck[0], session: rng.Intn(sh.sessions), edge: rng.Intn(edges)}
		deck = deck[1:]
		if r.kind == lengthEval {
			r.length = hypotheticalLengths[rng.Intn(len(hypotheticalLengths))]
		}
		return r
	}
}

// daemon is one running `oocraxml serve` child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout *addrWatcher
	hwm    func() int64
}

// addrWatcher collects the daemon's stdout and reports the address it
// announces on its first line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found chan string
	once  sync.Once
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	const marker = "oocraxml daemon on http://"
	if s := w.buf.String(); strings.Contains(s, marker) {
		rest := s[strings.Index(s, marker)+len(marker):]
		if i := strings.Index(rest, "/"); i > 0 {
			w.once.Do(func() { w.found <- rest[:i] })
		}
	}
	return len(p), nil
}

// startDaemon spawns the daemon on a fresh data directory, waits until
// /healthz answers and creates the sessions. It returns the daemon and
// the time from spawn to the last session created.
func startDaemon(e *env, i int, cfgs []service.SessionConfig) (*daemon, time.Duration, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("daemon-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	w := &addrWatcher{found: make(chan string, 1)}
	cmd := childCommand(e.bin, dir, "serve", "-addr", "127.0.0.1:0", "-data", filepath.Join(dir, "data"))
	cmd.Stdout = w
	cmd.Stderr = w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, stdout: w, hwm: watchPeakRSS(cmd.Process.Pid)}
	select {
	case d.addr = <-w.found:
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("daemon announced no address: %s", w.buf.String())
	}
	c := newClient(d.addr, false)
	for {
		if err := c.Health(); err == nil {
			break
		} else if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, cfg := range cfgs {
		if _, err := c.CreateSession(cfg); err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("creating session %s: %w", cfg.Name, err)
		}
	}
	return d, time.Since(start), nil
}

// stop sends SIGTERM (the daemon parks its sessions and exits 0), waits
// for the process and returns its peak RSS in KiB (VmHWM). A daemon that does
// not exit within 60 s is killed.
func (d *daemon) stop() (int64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("daemon did not stop within 60 s: %v", <-done)
	}
	return d.hwm(), err
}

// newClient returns a client that never retries, so a refusal or
// failure is counted, not hidden; trace sends a traceparent with every
// request, which makes the daemon return each request's cost ledger.
func newClient(addr string, trace bool) *service.Client {
	c := service.NewClient(addr)
	c.SetRetryBudget(0)
	c.SetTrace(trace)
	return c
}

// send issues r on c.
func send(c *service.Client, r request) (service.EvalReply, error) {
	name := sessionName(r.session)
	switch r.kind {
	case newview:
		return c.Newview(name, r.edge)
	case lengthEval:
		l := r.length
		return c.Evaluate(name, service.EvalSpec{Edge: r.edge, Length: &l})
	}
	return c.Evaluate(name, service.EvalSpec{Edge: r.edge})
}

func sessionName(i int) string { return fmt.Sprintf("s%d", i) }

// openLoop sends schedule on its due times over conns connections.
// A request waits for a free connection when all are busy; its latency
// still counts from its due time, and the wait shows as lag.
func openLoop(addr string, schedule []request, conns int, trace bool) []reply {
	out := make([]reply, len(schedule))
	jobs := make(chan int, len(schedule)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr, trace)
			for i := range jobs {
				r := &out[i]
				r.req = schedule[i]
				r.sent = time.Since(start)
				r.rep, r.err = send(c, r.req)
				r.done = time.Since(start)
			}
		}()
	}
	for i, r := range schedule {
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop keeps conns connections busy, each sending its next request
// as soon as the previous reply arrives, for d. It returns the replies in
// completion order and the phase's length.
func closedLoop(addr string, next func() request, conns int, d time.Duration, trace bool) ([]reply, time.Duration) {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr, trace)
			for time.Since(start) < d {
				mu.Lock()
				r := reply{req: next()}
				mu.Unlock()
				r.sent = time.Since(start)
				r.rep, r.err = send(c, r.req)
				r.done = time.Since(start)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(i, j int) bool { return out[i].done < out[j].done })
	return out, elapsed
}

// burstWalls splits completion-ordered replies into consecutive bursts
// of size and returns each burst's wall-clock in seconds.
func burstWalls(rs []reply, size int) []float64 {
	var walls []float64
	prev := time.Duration(0)
	for i := size - 1; i < len(rs); i += size {
		walls = append(walls, (rs[i].done - prev).Seconds())
		prev = rs[i].done
	}
	return walls
}

// daemonRun is the daemon workload: setups, an open loop at the fixed
// offered rate, then a closed loop for capacity; every reply is checked
// against an in-RAM engine afterwards. traced adds the per-request cost
// ledgers, a /debug/vars snapshot and an untraced closed-loop half to
// measure the tracing overhead against.
func daemonRun(e *env, sh daemonShape, traced bool) (*result, error) {
	in, err := makeInputs(e.work, sh.taxa, sh.sites, e.seed, false)
	if err != nil {
		return nil, err
	}
	n, vecLen, err := vectorShape(in)
	if err != nil {
		return nil, err
	}
	cfgs := make([]service.SessionConfig, sh.sessions)
	for i := range cfgs {
		cfgs[i] = service.SessionConfig{
			Name: sessionName(i), Alignment: in.alignment, Newick: in.newick,
			Alpha: 1.0, MemLimit: int64(shareOf(sh.slotShare, n)) * int64(vecLen) * 8,
		}
	}
	edges := 2*in.pats.NumTaxa() - 3
	conns := runtime.NumCPU()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = conns
		t.MaxConnsPerHost = conns
	}
	openFor := time.Duration(float64(e.seconds) * sh.openShare)
	rng := rand.New(rand.NewSource(e.seed))
	nextOpen := requestStream(rng, sh, edges)
	schedule := make([]request, int(openFor.Seconds()*sh.offeredRPS))
	for i := range schedule {
		schedule[i] = nextOpen()
		schedule[i].due = time.Duration(float64(i) / sh.offeredRPS * float64(time.Second))
	}
	nextClosed := requestStream(rand.New(rand.NewSource(e.seed+1)), sh, edges)

	var setups []float64
	var d *daemon
	for i := 0; i < sh.setups; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		var setup time.Duration
		if d, setup, err = startDaemon(e, i, cfgs); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	open := openLoop(d.addr, schedule, conns, traced)
	closedFor := e.seconds - openFor
	var untraced []reply
	if traced {
		untraced, _ = closedLoop(d.addr, nextClosed, conns, closedFor/2, false)
		closedFor -= closedFor / 2
	}
	closed, closedLen := closedLoop(d.addr, nextClosed, conns, closedFor, traced)
	var vars map[string]any
	if traced {
		vars, err = debugVars(d.addr)
	}
	rssKB, stopErr := d.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}

	all := append(append(append([]reply(nil), open...), untraced...), closed...)
	res := &result{Correct: true, Attempted: len(all)}
	bad, err := checkReplies(in, all)
	if err != nil {
		return nil, err
	}
	res.Failed = bad
	res.Correct = bad == 0
	if traced {
		res.Metrics = withUnits(perLayerUnits, daemonLayers(open, closed, untraced, vars, sh.burst))
		return res, nil
	}
	lat := make([]float64, len(open))
	for i, r := range open {
		lat[i] = math.MaxFloat64 // a failed request misses any latency limit
		if r.err == nil {
			lat[i] = (r.done - r.req.due).Seconds() * 1e3
		}
	}
	ok := 0
	for _, r := range closed {
		if r.err == nil {
			ok++
		}
	}
	res.Metrics = withUnits(endToEndUnits, map[string]float64{
		"wall_s":      median(burstWalls(closed, sh.burst)),
		"setup_s":     median(setups),
		"peak_rss_mb": float64(rssKB) / 1024,
		"p50_ms":      median(lat),
		"p99_ms":      quantile(lat, 0.99),
		"sat_rps":     float64(ok) / closedLen.Seconds(),
	})
	return res, nil
}

// checkReplies recomputes every distinct request in an in-RAM engine on
// the session's tree and counts the replies that failed or whose bits
// differ. Both sessions hold the same alignment and tree, so one
// reference engine serves them.
func checkReplies(in *inputs, rs []reply) (int, error) {
	// The daemon normalises a session's tree through a Newick round
	// trip (service.Session build); the reference does the same.
	t0, err := in.tree()
	if err != nil {
		return 0, err
	}
	t, err := tree.ParseNewick(tree.WriteNewick(t0))
	if err != nil {
		return 0, err
	}
	m, err := cliModel(in.pats)
	if err != nil {
		return 0, err
	}
	eng, err := plf.New(t, in.pats, m, plf.NewInMemoryProvider(t.NumInner(), plf.VectorLength(m, in.pats.NumPatterns())))
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	type key struct {
		kind   reqKind
		edge   int
		length float64
	}
	want := map[key]string{}
	bad := 0
	for _, r := range rs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request failed: %v\n", r.err)
			bad++
			continue
		}
		k := key{r.req.kind, r.req.edge, r.req.length}
		bits, ok := want[k]
		if !ok {
			edge := t.Edges[k.edge]
			var lnl float64
			switch k.kind {
			case lengthEval:
				lnl, err = eng.EvaluateAtLength(edge, k.length)
			case newview:
				eng.InvalidateAll()
				lnl, err = eng.LogLikelihoodAt(edge)
			default:
				lnl, err = eng.LogLikelihoodAt(edge)
			}
			if err != nil {
				return 0, err
			}
			bits = lnlBits(lnl)
			want[k] = bits
		}
		if r.rep.LnLBits != bits {
			fmt.Fprintf(os.Stderr, "perfbench: %s edge %d: lnL bits %s, in-RAM reference %s\n",
				sessionName(r.req.session), r.req.edge, r.rep.LnLBits, bits)
			bad++
		}
	}
	return bad, nil
}

// debugVars fetches the daemon's /debug/vars snapshot.
func debugVars(addr string) (map[string]any, error) {
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v map[string]any
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// counter reads a counter from a /debug/vars snapshot (0 if absent).
func counter(vars map[string]any, name string) float64 {
	cs, _ := vars["counters"].(map[string]any)
	v, _ := cs[name].(float64)
	return v
}

// daemonLayers derives the daemon's per-layer metrics from the reply
// ledgers of the traced run and the /debug/vars snapshot.
func daemonLayers(open, closed, untraced []reply, vars map[string]any, burst int) map[string]float64 {
	var wait, exec, httpMS, lag, batch []float64
	var newviews float64
	for _, r := range open {
		lag = append(lag, (r.sent-r.req.due).Seconds()*1e3)
	}
	for _, r := range append(append([]reply(nil), open...), closed...) {
		if r.err != nil {
			continue
		}
		if c := r.rep.Cost; c != nil {
			newviews += float64(c.Newviews)
		}
		if r.req.kind == newview {
			continue // not batched: no wait/exec split
		}
		w, x := float64(r.rep.WaitMicros)/1e3, float64(r.rep.ExecMicros)/1e3
		wait = append(wait, w)
		exec = append(exec, x)
		batch = append(batch, float64(r.rep.BatchSize))
		httpMS = append(httpMS, (r.done-r.sent).Seconds()*1e3-w-x)
	}
	var requests, misses float64
	counters, _ := vars["counters"].(map[string]any)
	for name := range counters {
		switch {
		case strings.HasSuffix(name, ".ooc_requests"):
			requests += counter(vars, name)
		case strings.HasSuffix(name, ".ooc_misses"):
			misses += counter(vars, name)
		}
	}
	v := map[string]float64{
		"plf.newviews":            newviews,
		"ooc.vector_calls":        requests,
		"service.wait_ms_p50":     median(wait),
		"service.exec_ms_p50":     median(exec),
		"service.exec_ms_p99":     quantile(exec, 0.99),
		"service.batch_size_mean": mean(batch),
		"service.http_ms_p50":     median(httpMS),
		"service.refused":         counter(vars, "svc.http.errors"),
		"loadgen.lag_ms_p99":      quantile(lag, 0.99),
	}
	if requests > 0 {
		v["ooc.miss_rate"] = misses / requests
	}
	if tw, uw := median(burstWalls(closed, burst)), median(burstWalls(untraced, burst)); tw > 0 && uw > 0 {
		v["trace.overhead_frac"] = tw/uw - 1
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
