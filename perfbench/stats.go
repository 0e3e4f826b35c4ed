package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples collects durations and reports percentiles in any unit.
type samples []time.Duration

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[lo+1]-c[lo]))
}

// timeline is a loop's latencies, each with its completion time since the
// loop began, so a run can be cut into windows.
type timeline struct {
	at  []time.Duration
	lat samples
}

func (t *timeline) add(at, lat time.Duration) {
	t.at = append(t.at, at)
	t.lat = append(t.lat, lat)
}

// scale multiplies every completion time and latency by the host factor f
// (see hostspeed.go), putting the timeline on the reference host's clock.
func (t *timeline) scale(f float64) {
	for i := range t.at {
		t.at[i] = scaled(t.at[i], f)
		t.lat[i] = scaled(t.lat[i], f)
	}
}

// merge appends o's samples, shifting their completion times by offset.
func (t *timeline) merge(o timeline, offset time.Duration) {
	for i, at := range o.at {
		t.add(offset+at, o.lat[i])
	}
}

// windows cuts a run of length total into n equal windows and returns
// each window's latencies.
func (t timeline) windows(total time.Duration, n int) []samples {
	w := make([]samples, n)
	for i, at := range t.at {
		k := int(int64(at) * int64(n) / int64(total))
		if k >= n {
			k = n - 1
		}
		w[k] = append(w[k], t.lat[i])
	}
	return w
}

// windowCount is the number of windows a run of length total is cut into:
// one per second, but no more than leave minPer samples to each.
func (t timeline) windowCount(total time.Duration, minPer int) int {
	n := int(total / time.Second)
	if m := len(t.lat) / minPer; m < n {
		n = m
	}
	if n < 1 {
		n = 1
	}
	return n
}

// windowed is the median over windows of each window's q-quantile
// latency, with windows of one second or as many seconds as it takes to
// hold minPer samples. A burst of interference on the machine moves only
// the windows it covers.
func (t timeline) windowed(total time.Duration, q float64, minPer int) time.Duration {
	var qs []float64
	for _, w := range t.windows(total, t.windowCount(total, minPer)) {
		if len(w) > 0 {
			qs = append(qs, float64(w.quantile(q)))
		}
	}
	return time.Duration(medianFloat(qs))
}

// windowedRate is the median over one-second windows of each window's
// completions per second.
func (t timeline) windowedRate(total time.Duration) float64 {
	n := t.windowCount(total, 1)
	width := total.Seconds() / float64(n)
	var rates []float64
	for _, w := range t.windows(total, n) {
		rates = append(rates, float64(len(w))/width)
	}
	return medianFloat(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs; 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB from
// /proc/<pid>/status ("self" for this process).
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// allocsPer returns the heap allocations per call of fn, averaged over n
// calls on the calling goroutine.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
