package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"oocphylo/internal/ooc"
	"oocphylo/internal/plf"
	"oocphylo/internal/search"
	"oocphylo/internal/tree"
)

// dataset is one generated input and the answer every run on it must
// reproduce.
type dataset struct {
	in  *inputs
	ref answer
}

// makeDatasets writes sh's datasets for e.seed under e.work and computes
// their in-RAM reference answers, before any clock starts. A single
// dataset is drawn from the seed itself, several from seed<<8 | j. The
// references of a search are in-RAM searches about as long as a run, so
// they are computed on every CPU at once.
func makeDatasets(e *env, sh batchShape) ([]dataset, error) {
	ds := make([]dataset, max(sh.datasets, 1))
	for j := range ds {
		dir := filepath.Join(e.work, fmt.Sprintf("input-%d", j))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		seed := e.seed
		if len(ds) > 1 {
			seed = e.seed<<8 | int64(j)
		}
		in, err := makeInputs(dir, sh.taxa, sh.sites, seed, sh.mode == "s")
		if err != nil {
			return nil, err
		}
		ds[j].in = in
	}
	errs := make([]error, len(ds))
	next := make(chan int, len(ds))
	for j := range ds {
		next <- j
	}
	close(next)
	var wg sync.WaitGroup
	for range min(runtime.NumCPU(), len(ds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				ds[j].ref, errs[j] = reference(sh, ds[j].in)
			}
		}()
	}
	wg.Wait()
	return ds, errors.Join(errs...)
}

// window runs one attempt after another, attempt(i) on dataset i mod
// datasets, until the window is over and at least minRuns attempts and
// one whole cycle through the datasets are done. It returns how many
// leading attempts make whole cycles: only those count, so every
// dataset is measured equally often however fast the code under test
// is, and a faster or slower commit is measured on the same mix.
func window(e *env, datasets, minRuns int, attempt func(i int)) (counted int) {
	start := time.Now()
	i := 0
	for ; i < max(minRuns, datasets) || time.Since(start) < e.seconds; i++ {
		attempt(i)
	}
	return i - i%datasets
}

// batchEndToEnd runs sh through the shipped binary back to back until
// the window is over (at least three runs), cycling through the
// datasets and gating each run on its in-RAM reference answer. The
// metrics are medians over the runs of whole cycles.
func batchEndToEnd(e *env, sh batchShape) (*result, error) {
	ds, err := makeDatasets(e, sh)
	if err != nil {
		return nil, err
	}
	type sample struct {
		run                             int
		elapsed, setup, wall, rss, rate float64
	}
	res := &result{Correct: true}
	var samples []sample
	counted := window(e, len(ds), 3, func(i int) {
		d := ds[i%len(ds)]
		res.Attempted++
		r, err := shippedRun(e, sh, d.in, i)
		if err == nil {
			err = r.ans.check(d.ref)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			res.Failed++
			res.Correct = false
			return
		}
		work := float64(sh.traversals)
		if sh.mode == "s" {
			work = float64(r.moves)
		}
		samples = append(samples, sample{
			run:     i,
			elapsed: r.elapsed.Seconds(),
			setup:   (r.wall - r.elapsed).Seconds(),
			wall:    r.wall.Seconds() * 1e3,
			rss:     float64(r.rssKB) / 1024,
			rate:    work / r.elapsed.Seconds(),
		})
	})
	var elapsed, setup, wall, rss, rate []float64
	for _, s := range samples {
		if s.run < counted {
			elapsed = append(elapsed, s.elapsed)
			setup = append(setup, s.setup)
			wall = append(wall, s.wall)
			rss = append(rss, s.rss)
			rate = append(rate, s.rate)
		}
	}
	vals := map[string]float64{}
	if len(elapsed) > 0 {
		vals["wall_s"] = median(elapsed)
		vals["setup_s"] = median(setup)
		vals["peak_rss_mb"] = median(rss)
		vals["p50_ms"] = median(wall)
		vals["p99_ms"] = quantile(wall, 0.99)
		vals["sat_rps"] = median(rate)
	}
	res.Metrics = withUnits(endToEndUnits, vals)
	return res, nil
}

// check compares a run's answer with the reference answer.
func (a answer) check(ref answer) error {
	if a.bits != ref.bits {
		return fmt.Errorf("lnL bits %s, in-RAM reference %s", a.bits, ref.bits)
	}
	if a.newick != ref.newick {
		return fmt.Errorf("result tree differs from the in-RAM reference")
	}
	return nil
}

// batchTraced alternates one shipped-binary run and one traced
// in-process run until the window is over (at least one pair, and one
// whole cycle through the datasets). The per-layer metrics are medians
// over the traced runs of whole cycles; the shipped runs give the
// untraced timed phase the tracing overhead is measured against.
func batchTraced(e *env, sh batchShape) (*result, error) {
	ds, err := makeDatasets(e, sh)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	fail := func(i int, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
		res.Failed++
		res.Correct = false
	}
	type sample struct {
		run             int
		shipped, traced float64 // timed phases; 0 when the run failed
		layers          map[string]float64
	}
	var samples []sample
	var last *recorder
	counted := window(e, len(ds), 1, func(i int) {
		d := ds[i%len(ds)]
		s := sample{run: i}
		res.Attempted += 2
		r, err := shippedRun(e, sh, d.in, i)
		if err == nil {
			err = r.ans.check(d.ref)
		}
		if err != nil {
			fail(i, err)
		} else {
			s.shipped = r.elapsed.Seconds()
		}
		tr, err := tracedRun(e, sh, d.in, i)
		if err == nil {
			err = tr.ans.check(d.ref)
		}
		if err != nil {
			fail(i, err)
		} else {
			s.traced = tr.elapsed.Seconds()
			s.layers = tr.layerMetrics()
			last = tr.rec
		}
		samples = append(samples, s)
	})
	var shipped, traced []float64
	layers := map[string][]float64{}
	for _, s := range samples {
		if s.run >= counted {
			continue
		}
		if s.shipped > 0 {
			shipped = append(shipped, s.shipped)
		}
		if s.traced > 0 {
			traced = append(traced, s.traced)
		}
		for name, v := range s.layers {
			layers[name] = append(layers[name], v)
		}
	}
	vals := map[string]float64{}
	for name, vs := range layers {
		vals[name] = median(vs)
	}
	if len(shipped) > 0 && len(traced) > 0 {
		vals["trace.overhead_frac"] = median(traced)/median(shipped) - 1
	}
	if last != nil {
		if err := saveTrace(e, last); err != nil {
			return nil, err
		}
	}
	res.Metrics = withUnits(perLayerUnits, vals)
	return res, nil
}

// saveTrace writes the spans of a traced run under .bench_build/traces.
func saveTrace(e *env, rec *recorder) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", filepath.Base(e.work), e.seed))
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return rec.write(path)
}

// tracedResult is one traced in-process run: its answer, timed phase,
// span totals and every layer's own counters, all taken at the end of
// the timed phase.
type tracedResult struct {
	ans       answer
	elapsed   time.Duration
	rec       *recorder
	spans     layerTotals
	eng       plf.Stats
	mgr       ooc.Stats
	pipe      ooc.PipelineStats
	pref      ooc.PrefetchStats
	tier      ooc.TierStats
	injected  time.Duration
	moves     int
	roundEnds []time.Duration // offsets of round ends from the start
	rounds    int
}

// tracedRun builds the oocraxml stack in-process, exactly as the CLI
// assembles it for sh (cmd/oocraxml buildProvider / openRemoteStore),
// with a traced wrapper at each layer boundary, and runs the CLI's
// timed phase on it.
func tracedRun(e *env, sh batchShape, in *inputs, run int) (*tracedResult, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("traced-%d", run))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Start from a collected heap, as a fresh CLI process does: the
	// reference engine's garbage would otherwise raise the GC target
	// and spare the traced run collections the shipped one pays for.
	debug.FreeOSMemory()
	t, err := in.tree()
	if err != nil {
		return nil, err
	}
	m, err := cliModel(in.pats)
	if err != nil {
		return nil, err
	}
	n, vecLen, err := vectorShape(in)
	if err != nil {
		return nil, err
	}
	memLimit, cacheBytes, err := budgets(sh, in)
	if err != nil {
		return nil, err
	}
	vecBytes := int64(vecLen) * 8
	rec := newRecorder()
	tr := &tracedResult{rec: rec}

	var store ooc.Store
	var tier *ooc.TieredStore
	var srvClock func() time.Duration
	if sh.remote {
		srv, err := newObjectServer(sh)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		srvClock = srv.Clock().Elapsed
		url := srv.ObjectURL("vectors")
		obj, err := ooc.OpenObjectStore(url, n, vecLen)
		if err != nil {
			if obj, err = ooc.NewObjectStore(url, n, vecLen); err != nil {
				return nil, err
			}
		}
		defer obj.Close()
		remoteSide := tracedStore{inner: obj, vecLen: vecLen, rec: rec, read: kGet, write: kPut, other: kRemoteOther}
		tier, err = ooc.NewTieredStore(remoteSide, ooc.TieredConfig{
			NumVectors: n, VectorLen: vecLen,
			CacheDir:     filepath.Join(dir, "cache"),
			CacheVectors: cacheVectorBudget(cacheBytes, n, vecLen),
			Lanes:        2,
			RemoteRetry:  ooc.RetryPolicy{Max: 3},
			Breaker:      ooc.BreakerConfig{Threshold: 5},
		})
		if err != nil {
			return nil, err
		}
		store = tier
	} else {
		fs, err := ooc.NewFileStore(filepath.Join(dir, "vectors.bin"), n, vecLen)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	wrapped := tracedStore{inner: store, vecLen: vecLen, rec: rec, read: kStoreRead, write: kStoreWrite, other: kStoreSync, inline: !sh.async}
	mgr, err := ooc.NewManager(ooc.Config{
		NumVectors:   n,
		VectorLen:    vecLen,
		Slots:        int(memLimit / vecBytes),
		Strategy:     ooc.NewLRU(n),
		ReadSkipping: true,
		Store:        wrapped,
		Async:        sh.async,
		IOWorkers:    2,
		Retry:        ooc.RetryPolicy{Max: 3},
	})
	if err != nil {
		wrapped.Close()
		return nil, err
	}
	defer func() { mgr.Close(); wrapped.Close() }()
	eng, err := plf.NewWithPrecision(t, in.pats, m, tracedProvider{Manager: mgr, rec: rec}, plf.PrecisionF64)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.SetKernel(plf.KernelAuto); err != nil {
		return nil, err
	}
	eng.SetWorkers(1)
	eng.EnablePrefetch(sh.async)
	eng.SetPrefetchDepth(1)

	start := time.Now()
	var lnl float64
	if sh.mode == "z" {
		eng.SetContext(context.Background())
		for i := 0; i < sh.traversals; i++ {
			id := rec.begin(kTraversal)
			err := eng.FullTraversal(t.Edges[0])
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin(kEvaluate)
			lnl, err = eng.LogLikelihoodAt(t.Edges[0])
			rec.end(id)
			if err != nil {
				return nil, err
			}
		}
	} else {
		onRound := func(search.Progress) error {
			tr.roundEnds = append(tr.roundEnds, time.Since(start))
			return nil
		}
		sr, err := search.New(eng, searchOptions(sh, m, onRound)).Run()
		if err != nil {
			return nil, err
		}
		lnl, tr.moves, tr.rounds = sr.LnL, sr.TestedMoves, sr.Rounds
		tr.ans.newick = tree.WriteNewick(t)
	}
	tr.elapsed = time.Since(start)
	tr.ans.bits = lnlBits(lnl)
	tr.spans = rec.totals()
	tr.eng = eng.Stats
	tr.mgr = mgr.Stats()
	tr.pipe = mgr.PipelineStats()
	tr.pref = mgr.PrefetchStats()
	if tier != nil {
		tr.tier = tier.Stats()
		tr.injected = srvClock()
	}
	return tr, nil
}

// cacheVectorBudget converts -cache-bytes into cache-tier slots as
// cmd/oocraxml does: everything when unset, at least one vector.
func cacheVectorBudget(budget int64, n, vecLen int) int {
	if budget <= 0 {
		return n
	}
	return min(max(int(budget/(int64(vecLen)*8)), 1), n)
}

// layerMetrics derives the per-layer metrics of one traced run.
func (tr *tracedResult) layerMetrics() map[string]float64 {
	s := &tr.spans
	oocTime := s.total[kVector] + s.total[kPrefetch]
	v := map[string]float64{
		"plf.compute_s":         (tr.elapsed - oocTime).Seconds(),
		"plf.newton_iters":      float64(tr.eng.NewtonIters),
		"plf.sum_tables":        float64(tr.eng.SumTables),
		"plf.newviews":          float64(tr.eng.Newviews),
		"plf.pcache_hit_rate":   ratio(tr.eng.PCacheHits, tr.eng.PCacheHits+tr.eng.PCacheMisses),
		"plf.traversal_ms":      medianMS(s.durations[kTraversal]),
		"plf.evaluate_ms":       medianMS(s.durations[kEvaluate]),
		"search.moves_tested":   float64(tr.moves),
		"ooc.vector_calls":      float64(s.calls[kVector]),
		"ooc.vector_s":          oocTime.Seconds(),
		"ooc.self_s":            (oocTime - s.childTime[kVector] - s.childTime[kPrefetch]).Seconds(),
		"ooc.writes":            float64(tr.mgr.Writes),
		"ooc.bytes_written":     float64(tr.mgr.BytesWritten),
		"ooc.reads":             float64(tr.mgr.Reads),
		"ooc.skipped_reads":     float64(tr.mgr.SkippedReads),
		"ooc.miss_rate":         tr.mgr.MissRate(),
		"ooc.read_rate":         tr.mgr.ReadRate(),
		"ooc.stall_s":           tr.pipe.StallTime.Seconds(),
		"ooc.prefetch_hits":     float64(tr.pref.Hits),
		"store.read_calls":      float64(s.calls[kStoreRead]),
		"store.read_s":          s.total[kStoreRead].Seconds(),
		"store.write_calls":     float64(s.calls[kStoreWrite]),
		"store.write_s":         s.total[kStoreWrite].Seconds(),
		"tier.get_calls":        float64(s.calls[kGet]),
		"tier.get_s":            s.total[kGet].Seconds(),
		"tier.put_calls":        float64(s.calls[kPut]),
		"tier.put_s":            s.total[kPut].Seconds(),
		"tier.bytes_in":         float64(tr.tier.BytesFetched),
		"tier.bytes_out":        float64(tr.tier.BytesPushed),
		"tier.cache_hit_rate":   ratio(tr.tier.CacheHits, tr.tier.CacheHits+tr.tier.CacheMisses),
		"tier.coalesced":        float64(tr.tier.Coalesced),
		"tier.single_flight":    float64(tr.tier.SingleFlight),
		"tier.dirty_writebacks": float64(tr.tier.DirtyWritebacks),
		"remote.injected_s":     tr.injected.Seconds(),
	}
	if tr.rounds > 0 {
		// A round that improved nothing ends the search without a
		// RoundCallback; the end of the timed phase closes it.
		ends := tr.roundEnds
		if len(ends) < tr.rounds {
			ends = append(ends, tr.elapsed)
		}
		var rounds []float64
		prev := time.Duration(0)
		for _, end := range ends {
			rounds = append(rounds, (end - prev).Seconds())
			prev = end
		}
		v["search.round_s"] = median(rounds)
	}
	return v
}
