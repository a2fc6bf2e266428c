package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"oocphylo/internal/ooc/remote"
)

// cliRun is what one oocraxml child process reported.
type cliRun struct {
	elapsed time.Duration // the CLI's own timed phase ("Elapsed:")
	wall    time.Duration // spawn to exit, measured here
	rssKB   int64         // the child's peak RSS (VmHWM)
	ans     answer
	moves   int // SPR moves tested (mode s)
	ooc     oocCounters
}

// oocCounters are the manager counters -report prints.
type oocCounters struct {
	requests, misses, reads, writes, skippedReads int64
}

// cliArgs returns the oocraxml flags for one run of sh on in. Vectors
// live in backing (or on the remote object objURL behind cacheDir); the
// result tree goes to treeOut.
func cliArgs(sh batchShape, in *inputs, memLimit, cacheBytes int64, backing, objURL, cacheDir, treeOut string) []string {
	args := []string{
		"-s", in.alnPath, "-t", in.treePath, "-f", sh.mode,
		"-L", strconv.FormatInt(memLimit, 10), "-lnl-bits",
	}
	if sh.mode == "z" {
		args = append(args, "-k", strconv.Itoa(sh.traversals))
	} else {
		args = append(args, "-radius", strconv.Itoa(sh.radius), "-rounds", strconv.Itoa(sh.rounds), "-w", treeOut)
	}
	if sh.async {
		args = append(args, "-async")
	}
	if sh.remote {
		args = append(args, "-store", objURL, "-cache-dir", cacheDir, "-cache-bytes", strconv.FormatInt(cacheBytes, 10))
	} else {
		args = append(args, "-backing", backing)
	}
	return args
}

// runCLI runs the shipped binary once with args (plus extra), inside
// dir, and parses what it printed.
func runCLI(e *env, dir string, args []string, extra ...string) (*cliRun, error) {
	cmd := childCommand(e.bin, dir, append(args, extra...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	hwm := watchPeakRSS(cmd.Process.Pid)
	err := cmd.Wait()
	wall := time.Since(start)
	r := &cliRun{wall: wall, rssKB: hwm()}
	if err != nil {
		return nil, fmt.Errorf("oocraxml %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	for _, line := range strings.Split(stdout.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "Log likelihood bits: "):
			r.ans.bits = strings.TrimPrefix(line, "Log likelihood bits: ")
		case strings.HasPrefix(line, "Elapsed: "):
			if r.elapsed, err = time.ParseDuration(strings.TrimPrefix(line, "Elapsed: ")); err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
		case strings.HasPrefix(line, "Search: "):
			var rounds, accepted int
			if _, err := fmt.Sscanf(line, "Search: %d rounds, %d moves tested, %d accepted", &rounds, &r.moves, &accepted); err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
		case strings.HasPrefix(line, "Out-of-core: ") && strings.Contains(line, " requests, "):
			var c oocCounters
			var missPct, readPct float64
			if _, err := fmt.Sscanf(line, "Out-of-core: %d requests, %d misses (%f%%), %d reads (%f%%), %d writes, %d skipped reads",
				&c.requests, &c.misses, &missPct, &c.reads, &readPct, &c.writes, &c.skippedReads); err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			r.ooc = c
		}
	}
	if r.ans.bits == "" || r.elapsed <= 0 {
		return nil, fmt.Errorf("oocraxml printed no likelihood bits or elapsed time:\n%s", stdout.String())
	}
	for i, a := range args {
		if a == "-w" && i+1 < len(args) {
			data, err := os.ReadFile(args[i+1])
			if err != nil {
				return nil, err
			}
			r.ans.newick = strings.TrimSpace(string(data))
		}
	}
	return r, nil
}

// shippedRun runs sh once through the shipped binary in a fresh
// subdirectory of e.work, with a fresh loopback object server when the
// shape is remote, and removes every file the run left.
func shippedRun(e *env, sh batchShape, in *inputs, run int, extra ...string) (*cliRun, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("cli-%d", run))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	memLimit, cacheBytes, err := budgets(sh, in)
	if err != nil {
		return nil, err
	}
	var objURL string
	if sh.remote {
		srv, err := newObjectServer(sh)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		objURL = srv.ObjectURL("vectors")
	}
	args := cliArgs(sh, in, memLimit, cacheBytes,
		filepath.Join(dir, "vectors.bin"), objURL, filepath.Join(dir, "cache"), filepath.Join(dir, "result.nwk"))
	return runCLI(e, dir, args, extra...)
}

// budgets converts the shape's shares into the -L and -cache-bytes
// byte budgets for in's vectors.
func budgets(sh batchShape, in *inputs) (memLimit, cacheBytes int64, err error) {
	n, vecLen, err := vectorShape(in)
	if err != nil {
		return 0, 0, err
	}
	vecBytes := int64(vecLen) * 8
	return int64(shareOf(sh.slotShare, n)) * vecBytes, int64(shareOf(sh.cacheShare, n)) * vecBytes, nil
}

// shareOf returns round(share·n), at least the manager's minimum.
func shareOf(share float64, n int) int {
	k := int(share*float64(n) + 0.5)
	if k < 3 {
		k = 3
	}
	return k
}

// newObjectServer starts the loopback object server with the shape's
// per-request latency injected (iosim.Device).
func newObjectServer(sh batchShape) (*remote.Server, error) {
	cfg := remote.ServerConfig{}
	cfg.Device.Name = "loopback"
	cfg.Device.Latency = sh.latency
	return remote.NewServer(cfg)
}

// childCommand prepares a child process running in dir, with its
// temporary files there too. The child is killed if this process dies
// first, so no run leaves one behind.
func childCommand(bin, dir string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// watchPeakRSS samples the peak resident set size (VmHWM) of process
// pid every few milliseconds until the returned function is called,
// after the process has exited, and which returns the last sample in
// KiB. The kernel's rusage ru_maxrss cannot be used: it charges a child
// with the RSS its parent had when the child was exec'ed, and this
// benchmark's own process holds the in-RAM reference engine.
func watchPeakRSS(pid int) func() int64 {
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(done)
		for {
			if kb, ok := readHWM(path); ok {
				peak.Store(kb)
			}
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	return func() int64 {
		close(stop)
		<-done
		return peak.Load()
	}
}

// readHWM returns the VmHWM line of a /proc/<pid>/status file in KiB.
func readHWM(path string) (int64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}
