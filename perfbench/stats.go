package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail estimate resting on fewer is one outlier's value, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest rank.
// It refuses when fewer than minBeyond samples lie above the rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain middle value, for small sample sets (set-up
// repetitions) where no tail is reported.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported value with its unit and the number of samples
// behind it (1 for a value measured once per run).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's named values; percentile refusals are kept
// as errors so the run can report why a value is missing.
type metricSet struct {
	vals map[string]metric
	errs map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, errs: map[string]string{}}
}

func (m *metricSet) set(name string, v float64, unit string, n int) {
	m.vals[name] = metric{Value: v, Unit: unit, N: n}
}

// pct records the q-percentile of samples under name, or the refusal.
func (m *metricSet) pct(name string, samples []float64, q float64, unit string) {
	v, err := percentile(samples, q)
	if err != nil {
		m.errs[name] = err.Error()
		return
	}
	m.set(name, v, unit, len(samples))
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the high-water resident set of process pid ("self" for
// this one) from /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
