package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// procs is the GOMAXPROCS every run is pinned to. One: the benchmark's
// machine is a few cores of a shared host that at times gives two busy
// threads one core's worth of progress, and a run that keeps every core
// busy (ranks x workers = 2 on 2 cores, plus the collector's workers)
// stops at each barrier for whichever thread the host held back -- the
// same binary then reads 20-25% apart between runs. On one thread the
// ranks of a multi-rank workload take turns, every message still crosses
// par.Comm, and what is timed is the work a step does, which the host can
// always find a core for.
const procs = 1

// probeProcs is what the two probes of par.Pool raise GOMAXPROCS to while
// they run: a pool has nothing to show on one thread.
const probeProcs = 2

// environment is the block every result carries so numbers from two
// machines are not compared as if they were from one.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	LLC        string `json:"llc_size"`
	// Oversubscribed marks timings unreliable (no core to spare beside
	// the one the run keeps busy); counts are still exact.
	Oversubscribed bool `json:"oversubscribed"`
}

func readEnvironment() environment {
	e := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:   cpuModel(),
		LLC:        llcSize(),
	}
	e.Oversubscribed = e.NumCPU <= procs
	// A benchmark checkout need not be a git repository; the commit is
	// then unknown, which is not an error.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return e
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcSize is the size of cpu0's highest-index cache, as sysfs prints it.
func llcSize() string {
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	if len(idx) == 0 {
		return "unknown"
	}
	sort.Strings(idx)
	return firstLine(idx[len(idx)-1])
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM); where
// /proc is missing it falls back to what the Go runtime obtained from the
// OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			v, ok := strings.CutPrefix(line, "VmHWM:")
			if !ok {
				continue
			}
			if f := strings.Fields(v); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil && kb > 0 {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
