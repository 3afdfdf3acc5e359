package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// machine is the fingerprint every output file carries, so snapshots from
// different boxes can be normalised (by SpinMS) and a noisy neighbour is
// visible: one that takes a core in SpinMS, one that takes the shared cache
// and the memory bus in StreamMS (the kernel of calib.go, here before the
// workload has started).
type machine struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SpinMS     float64 `json:"calib_spin_ms"`
	StreamMS   float64 `json:"calib_stream_ms"`
}

var spinSink uint64

// spinMS times a fixed integer kernel (2^24 xorshift64 steps) and returns
// the median of five runs in milliseconds. It touches no memory, so it
// tracks core speed and scheduler interference and nothing else.
func spinMS() float64 {
	samples := make([]float64, 5)
	for i := range samples {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for k := 0; k < 1<<24; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		samples[i] = ms(time.Since(t0))
	}
	return median(samples)
}

func fingerprint() machine {
	m := machine{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SpinMS:     spinMS(),
		StreamMS:   streamSample(),
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		m.CPUModel = v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	if m.Commit == "unknown" {
		m.Commit = gitHead("..")
	}
	return m
}

// gitHead reads the checked-out commit from a work tree's .git directory,
// for builds (go run among them) that carry no VCS stamp.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// procField returns the value of the first "key : value" line of a /proc
// file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM). Off
// Linux it falls back to the Go runtime's view of memory obtained from the
// OS, so the metric is never zero.
func peakRSSMB() float64 {
	if v, ok := procField("/proc/self/status", "VmHWM"); ok {
		if kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
