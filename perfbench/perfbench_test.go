package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"oocphylo/internal/plf"
	"oocphylo/internal/search"
)

// TestTracedStackMatchesShippedBinary runs the batch workloads once
// through the shipped binary (with -report) and once through the traced
// in-process stack, and requires the same likelihood bits, the same
// result tree and the same out-of-core counters: the traced stack is the
// shipped one, and the wrappers change nothing. It also checks that the
// workloads separate the layers as BENCHMARK.json predicts.
func TestTracedStackMatchesShippedBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds oocraxml and runs two workloads")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "oocraxml")
	build := exec.Command("go", "build", "-o", bin, "./cmd/oocraxml")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building oocraxml: %v\n%s", err, out)
	}
	share := map[string]float64{} // ooc.vector_s / timed phase
	for name, sh := range map[string]batchShape{"spr-search": sprSearch, "fz-traverse": fzTraverse, "tier-cold": tierCold} {
		work := filepath.Join(dir, name)
		if err := os.MkdirAll(work, 0o755); err != nil {
			t.Fatal(err)
		}
		e := &env{root: root, bin: bin, work: work, seed: 1}
		in, err := makeInputs(work, sh.taxa, sh.sites, e.seed, sh.mode == "s")
		if err != nil {
			t.Fatal(err)
		}
		cli, err := shippedRun(e, sh, in, 0, "-report")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tracedRun(e, sh, in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.ans.check(cli.ans); err != nil {
			t.Errorf("%s: traced run against the shipped binary: %v", name, err)
		}
		got := oocCounters{tr.mgr.Requests, tr.mgr.Misses, tr.mgr.Reads, tr.mgr.Writes, tr.mgr.SkippedReads}
		if cli.ooc != got || got.requests == 0 {
			t.Errorf("%s: shipped ooc counters %+v, traced %+v", name, cli.ooc, got)
		}
		m := tr.layerMetrics()
		for _, k := range []string{"tier.get_calls", "tier.put_calls", "tier.bytes_in", "tier.bytes_out", "remote.injected_s"} {
			switch {
			case sh.remote && m[k] <= 0:
				t.Errorf("%s: %s = %g, want it above 0 through the tier", name, k, m[k])
			case !sh.remote && m[k] != 0:
				t.Errorf("%s: %s = %g, want 0 without a tier", name, k, m[k])
			}
		}
		wall := tr.elapsed.Seconds()
		share[name] = m["ooc.vector_s"] / wall
		switch name {
		case "fz-traverse":
			if m["plf.newton_iters"] != 0 {
				t.Errorf("fz-traverse: plf.newton_iters = %g, want 0", m["plf.newton_iters"])
			}
		case "spr-search":
			if c := m["plf.compute_s"]; c < wall/2 {
				t.Errorf("spr-search: plf.compute_s %.3f s is not most of the %.3f s timed phase", c, wall)
			}
		}
	}
	if share["fz-traverse"] <= share["spr-search"] {
		t.Errorf("ooc.vector_s share of wall: fz-traverse %.3f, spr-search %.3f; want fz-traverse larger",
			share["fz-traverse"], share["spr-search"])
	}
}

// TestDaemonMixFollowsSearchTraffic derives the daemon's request mix
// from the engine calls of spr-search on seed 1, the kind of client the
// daemon serves. Each request kind is one engine entry point: a plain
// evaluate is a LogLikelihoodAt on valid vectors, an evaluate at a
// hypothetical length builds a sum table (plf.Stats.SumTables), and a
// newview is a LogLikelihoodAt that recomputes every inner vector, as the
// search's model optimisation does after each InvalidateAll. The mix in
// spec.go is this measurement rounded to whole percent and then fixed, so
// that a later change to the search does not change the daemon's load.
func TestDaemonMixFollowsSearchTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a search")
	}
	in, err := makeInputs(t.TempDir(), sprSearch.taxa, sprSearch.sites, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := in.tree()
	if err != nil {
		t.Fatal(err)
	}
	m, err := cliModel(in.pats)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := plf.New(tr, in.pats, m, plf.NewInMemoryProvider(tr.NumInner(), plf.VectorLength(m, in.pats.NumPatterns())))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The safe point runs before every newview. A run of newviews ends
	// at the entry point that needed them; one that ends in an
	// evaluation and covers every inner vector is a full recompute.
	var run, full, seenEvals, seenOps int64
	closeRun := func() {
		if ops := eng.Stats.Evaluations + eng.Stats.SumTables; ops != seenOps {
			if eng.Stats.Evaluations > seenEvals && run >= int64(tr.NumInner()) {
				full++
			}
			seenOps, seenEvals, run = ops, eng.Stats.Evaluations, 0
		}
	}
	eng.SetSafePoint(func() error { closeRun(); run++; return nil })
	if _, err := search.New(eng, searchOptions(sprSearch, m, nil)).Run(); err != nil {
		t.Fatal(err)
	}
	closeRun()
	st := eng.Stats
	total := float64(st.Evaluations + st.SumTables)
	lengthPct := 100 * float64(st.SumTables) / total
	newviewPct := 100 * float64(full) / total
	t.Logf("spr-search seed 1: %d evaluations (%d full recomputes), %d sum tables: %.2f %% plain, %.2f %% at a length, %.2f %% newview",
		st.Evaluations, full, st.SumTables, 100-lengthPct-newviewPct, lengthPct, newviewPct)
	if math.Abs(lengthPct-float64(daemonLoad.lengthPct)) > 0.5 || math.Abs(newviewPct-float64(daemonLoad.newviewPct)) > 0.5 {
		t.Errorf("daemon mix %d %% at a length, %d %% newview; the search's calls give %.2f %% and %.2f %%",
			daemonLoad.lengthPct, daemonLoad.newviewPct, lengthPct, newviewPct)
	}
}

// TestBenchmarkJSONMatchesRunner checks that BENCHMARK.json names the
// metrics this runner prints, with their units, and states the daemon's
// offered rate and request mix the runner uses.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, listed []named, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runner prints %d", what, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the runner prints %q", what, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndUnits)
	same("per_layer", b.PerLayer, perLayerUnits)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner has %d", len(b.Workloads), len(workloads))
	}
	rate := fmt.Sprintf("%g req/s", daemonLoad.offeredRPS)
	mix := fmt.Sprintf("%d%% evaluate at a hypothetical length, %d%% newview", daemonLoad.lengthPct, daemonLoad.newviewPct)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the runner", w.Name)
		}
		for _, want := range []string{rate, mix} {
			if w.Name == "daemon" && !strings.Contains(w.Why, want) {
				t.Errorf("daemon why %q does not state %q", w.Why, want)
			}
		}
	}
}
