package main

import (
	"sort"
	"strings"
	"time"
)

// batchShape is the input and CLI configuration of one batch workload:
// the alignment the benchmark simulates, and the oocraxml flags it runs
// on it. README.md gives the reasoning behind each value.
type batchShape struct {
	taxa, sites int
	// mode is the CLI -f mode: "s" (lazy-SPR search from a seeded
	// parsimony tree) or "z" (full traversals of the simulated tree).
	mode       string
	traversals int // -k, mode z
	radius     int // -radius, mode s
	rounds     int // -rounds, mode s
	// slotShare is the share of inner vectors held in RAM; -L is that
	// many vectors' bytes.
	slotShare float64
	async     bool
	// remote runs the vectors on the loopback object server behind a
	// local cache of cacheShare of the vectors (-store, -cache-bytes),
	// with latency injected per request.
	remote     bool
	cacheShare float64
	latency    time.Duration
	// datasets is how many seeded datasets a run cycles through, one per
	// CLI run (0 means 1). A search's work depends on its data: a 16-taxon
	// search does up to 40 % more remote I/O on one dataset than on
	// another, and a 40-taxon one tests more moves and Newton iterations
	// on some. The median over several keeps that out of the spread
	// between seeds. Only whole cycles count (see window).
	datasets int
}

// daemonShape configures the daemon workload.
type daemonShape struct {
	taxa, sites int
	// slotShare is each session's mem_limit as a share of its vectors.
	slotShare float64
	sessions  int
	// offeredRPS is the open-loop offered rate. It is a constant, never
	// derived from a measured capacity; BENCHMARK.json states it too.
	// README.md gives the utilisation it was chosen for.
	offeredRPS float64
	// openShare is the share of the window spent in the open loop; the
	// closed-loop capacity phase takes the rest.
	openShare float64
	// Request mix, in percent: evaluates at a hypothetical branch length
	// (the sum-table path) and full recomputes; the rest are plain
	// evaluates at the edge's own length. The shares are those of the
	// engine calls spr-search makes on seed 1, fixed here
	// (TestDaemonMixFollowsSearchTraffic derives them).
	lengthPct, newviewPct int
	// burst is the closed loop's unit of work: wall_s is the median time
	// to complete one burst of this many requests.
	burst int
	// setups is how many times a run spawns the daemon and creates its
	// sessions; setup_s is their median.
	setups int
}

var (
	sprSearch = batchShape{
		taxa: 40, sites: 400, mode: "s", radius: 4, rounds: 1, slotShare: 0.2,
		datasets: 6,
	}
	fzTraverse = batchShape{
		taxa: 512, sites: 3000, mode: "z", traversals: 10, slotShare: 0.15,
	}
	tierCold = batchShape{
		taxa: 16, sites: 300, mode: "s", radius: 2, rounds: 1, slotShare: 0.2,
		async: true, remote: true, cacheShare: 0.5, latency: 2 * time.Millisecond,
		datasets: 8,
	}
	daemonLoad = daemonShape{
		taxa: 128, sites: 1000, slotShare: 0.2, sessions: 2,
		offeredRPS: 100, openShare: 0.7, lengthPct: 98, newviewPct: 2,
		burst: 100, setups: 3,
	}
)

// workload is one benchmark workload: an end-to-end run through the
// shipped binary and a traced in-process run for the layer split.
type workload struct {
	endToEnd func(*env) (*result, error)
	traced   func(*env) (*result, error)
}

var workloads = map[string]workload{
	"spr-search": {
		endToEnd: func(e *env) (*result, error) { return batchEndToEnd(e, sprSearch) },
		traced:   func(e *env) (*result, error) { return batchTraced(e, sprSearch) },
	},
	"fz-traverse": {
		endToEnd: func(e *env) (*result, error) { return batchEndToEnd(e, fzTraverse) },
		traced:   func(e *env) (*result, error) { return batchTraced(e, fzTraverse) },
	},
	"tier-cold": {
		endToEnd: func(e *env) (*result, error) { return batchEndToEnd(e, tierCold) },
		traced:   func(e *env) (*result, error) { return batchTraced(e, tierCold) },
	},
	"daemon": {
		endToEnd: func(e *env) (*result, error) { return daemonRun(e, daemonLoad, false) },
		traced:   func(e *env) (*result, error) { return daemonRun(e, daemonLoad, true) },
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// End-to-end metric names and units. Every run prints all of them; see
// README.md for what each means on the batch workloads and the daemon.
var endToEndUnits = map[string]string{
	"wall_s":      "s",
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"p50_ms":      "ms",
	"p99_ms":      "ms",
	"sat_rps":     "1/s",
}

// Per-layer metric names and units. A traced run prints all of them;
// a layer that is not on a workload's path reads 0 there.
var perLayerUnits = map[string]string{
	"plf.compute_s":           "s",
	"plf.newton_iters":        "count",
	"plf.sum_tables":          "count",
	"plf.newviews":            "count",
	"plf.pcache_hit_rate":     "ratio",
	"plf.traversal_ms":        "ms",
	"plf.evaluate_ms":         "ms",
	"search.round_s":          "s",
	"search.moves_tested":     "count",
	"ooc.vector_calls":        "count",
	"ooc.vector_s":            "s",
	"ooc.self_s":              "s",
	"ooc.writes":              "count",
	"ooc.bytes_written":       "B",
	"ooc.reads":               "count",
	"ooc.skipped_reads":       "count",
	"ooc.miss_rate":           "ratio",
	"ooc.read_rate":           "ratio",
	"ooc.stall_s":             "s",
	"ooc.prefetch_hits":       "count",
	"store.read_calls":        "count",
	"store.read_s":            "s",
	"store.write_calls":       "count",
	"store.write_s":           "s",
	"tier.get_calls":          "count",
	"tier.get_s":              "s",
	"tier.put_calls":          "count",
	"tier.put_s":              "s",
	"tier.bytes_in":           "B",
	"tier.bytes_out":          "B",
	"tier.cache_hit_rate":     "ratio",
	"tier.coalesced":          "count",
	"tier.single_flight":      "count",
	"tier.dirty_writebacks":   "count",
	"remote.injected_s":       "s",
	"service.wait_ms_p50":     "ms",
	"service.exec_ms_p50":     "ms",
	"service.exec_ms_p99":     "ms",
	"service.batch_size_mean": "count",
	"service.http_ms_p50":     "ms",
	"service.refused":         "count",
	"loadgen.lag_ms_p99":      "ms",
	"trace.overhead_frac":     "ratio",
}

// withUnits turns a name → value map into the result's metrics, with
// every name of units present (missing ones read 0).
func withUnits(units map[string]string, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}
