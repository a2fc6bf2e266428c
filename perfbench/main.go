// Command perfbench is the repository benchmark. It runs one seeded
// workload against the shipped oocraxml binary and prints one JSON
// result line: the end-to-end metrics with -trace 0, or the per-layer
// metrics of a separate traced in-process run with -trace 1. Every run
// checks its likelihoods bit for bit against an in-RAM engine.
//
// Run it through run.sh from the repository root, which builds both
// binaries from source first:
//
//	bash perfbench/run.sh --workload spr-search --seed 1 --seconds 25 --trace 0
//
// README.md records why each workload exists, its shape, and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON document a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runner needs: the checkout, the built
// binary, a private scratch directory and the run's settings.
type env struct {
	root    string // repository checkout the benchmark runs from
	bin     string // the shipped oocraxml binary built from root
	work    string // scratch directory for this run, removed at exit
	seed    int64
	seconds time.Duration
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout to benchmark")
	bin := fs.String("bin", "", "oocraxml binary built from the checkout (default <root>/.bench_build/bin/oocraxml)")
	workload := fs.String("workload", "", "workload name ("+workloadNames()+"), or all: every workload in turn, one JSON line each")
	seed := fs.Int64("seed", 1, "workload seed: generates every input")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = per-layer metrics from a traced in-process run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = strings.Split(workloadNames(), ", ")
	} else if _, ok := workloads[*workload]; !ok {
		return fmt.Errorf("unknown workload %q (want %s or all)", *workload, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	if *bin == "" {
		*bin = filepath.Join(absRoot, ".bench_build", "bin", "oocraxml")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("oocraxml binary: %w (build it with run.sh)", err)
	}
	for _, name := range names {
		e := &env{root: absRoot, bin: *bin, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
		res, err := runWorkload(e, name, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var line []byte
		if *workload == "all" {
			line, err = json.Marshal(struct {
				Workload string  `json:"workload"`
				Result   *result `json:"result"`
			}{name, res})
		} else {
			line, err = json.Marshal(res)
		}
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runWorkload runs one workload in a fresh scratch directory under
// <root>/.bench_build/work, removed afterwards.
func runWorkload(e *env, name string, traced bool) (*result, error) {
	workRoot := filepath.Join(e.root, ".bench_build", "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e.work = work
	if traced {
		return workloads[name].traced(e)
	}
	return workloads[name].endToEnd(e)
}
