package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between closest ranks; 0 for no values. The 50th is the
// median: the mean of the two middle values for an even count.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuTime is the process's user plus system CPU time so far, over all
// threads (the in-process daemon included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// envRecord describes the machine a run measured on, so an outlier can be
// explained from the record instead of hidden.
type envRecord struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	StealTicks int64   `json:"steal_ticks"`
	TotalTicks int64   `json:"total_ticks"`
	CalibMS    float64 `json:"calib_ms"` // machine speed now: see calibrate
}

// readEnv samples the machine's state now.
func readEnv() envRecord {
	e := envRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.StealTicks, e.TotalTicks = cpuTicks()
	e.CalibMS = calibrate()
	return e
}

// calibrate times a fixed CPU-bound job that no code under test runs
// (SHA-256 over 4 MiB, best of three). Recorded at the start and end of
// every run, it tells a slow run on a slow machine from a slow program;
// no metric is divided by it.
func calibrate() float64 {
	buf := make([]byte, 4<<20)
	best := math.Inf(1)
	for range 3 {
		t0 := time.Now()
		sha256.Sum256(buf)
		best = min(best, ms(time.Since(t0)))
	}
	return best
}

// cpuTicks reads the aggregate steal and total jiffies from /proc/stat
// (zeros where the file is unavailable).
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealFrac is the share of all CPU ticks stolen by the hypervisor
// between two records.
func stealFrac(a, b envRecord) float64 {
	dt := b.TotalTicks - a.TotalTicks
	if dt <= 0 {
		return 0
	}
	return float64(b.StealTicks-a.StealTicks) / float64(dt)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checker counts output checks; every failed check is reported on
// standard error with its reason.
type checker struct {
	attempted, failed int
}

// check records one check.
func (ck *checker) check(ok bool, format string, args ...any) {
	ck.attempted++
	if !ok {
		ck.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// equal records a check that got == want.
func (ck *checker) equal(what string, got, want any) {
	ck.check(got == want, "%s: got %v, want %v", what, got, want)
}

// okFrac is the share of checks that passed (0 before any check).
func (ck *checker) okFrac() float64 {
	return ratio(float64(ck.attempted-ck.failed), float64(ck.attempted))
}
