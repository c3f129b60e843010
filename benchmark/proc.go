package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// statusMB reads one memory line of /proc/self/status, in MB.
func statusMB(key string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", key, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status: %w", key, sc.Err())
}

// peakRSSMB is the high-water mark of the process's resident set
// since resetPeakRSS, or since the process started.
func peakRSSMB() (float64, error) { return statusMB("VmHWM") }

// resetPeakRSS restarts the high-water mark at the current resident
// set, so that the peak reported after a timed section is that
// section's and not the oracle's. It first collects garbage and hands
// free memory back to the system: otherwise the mark starts at whatever
// set-up left behind, which depends on when the runtime's background
// scavenger last ran. A kernel that refuses the reset leaves the mark
// covering the whole process, which is still a steady number.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("peak RSS covers the whole process: %v", err)
	}
}

// procSample is a point-in-time reading of the process counters the
// benchmark reports as deltas over a timed section.
type procSample struct {
	cpu time.Duration
	mem runtime.MemStats
}

func sampleProc() (procSample, error) {
	var s procSample
	var err error
	runtime.ReadMemStats(&s.mem)
	s.cpu, err = cpuTime()
	return s, err
}

// calibrate times a fixed pure-stdlib spin — SHA-256 over 64 MB, then
// a sort of 1M integers — that no change to this repository can move.
// Taken at both ends of a run it separates machine drift from code
// drift: when it moves, the machine moved.
func calibrate(quick bool) float64 {
	size, ints := 64<<20, 1<<20
	if quick {
		size, ints = 1<<20, 1<<14
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]int, ints)
	for i := range xs {
		xs[i] = rng.Int()
	}
	start := time.Now()
	h := sha256.New()
	for n := 0; n < size; n += len(buf) {
		h.Write(buf)
	}
	h.Sum(nil)
	sort.Ints(xs)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// environment is recorded with every result file so two files can be
// told apart when the numbers differ.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// The commit is stamped by the go tool when the build ran inside a
	// git checkout; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}
