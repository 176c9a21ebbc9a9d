package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a percentile with fewer is the noise of a handful of samples.
const minBeyond = 10

// percentile returns the perMille/1000 quantile of sorted by rank — the
// ceil(n·q)-th smallest sample, in exact integer arithmetic — and how many
// samples lie beyond that rank.
func percentile(sorted []float64, perMille int) (v float64, beyond int) {
	n := len(sorted)
	rank := (n*perMille + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// median returns the middle of xs (the mean of the two middles for an even
// count) without modifying xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics plus the human-readable notes (sample
// counts, generator lateness) printed ahead of the result line.
type report struct {
	metrics map[string]metricValue
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencyPercentiles returns the p50, p99 and p99.9 of raw per-arrival
// samples. Failed arrivals enter as +Inf, so they miss every percentile. A
// percentile with fewer than minBeyond samples beyond it, or one that a
// failed arrival reaches, is an error, never a number.
func latencyPercentiles(samples []float64) ([3]float64, error) {
	var out [3]float64
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return out, fmt.Errorf("no latency samples")
	}
	for i, p := range []int{500, 990, 999} {
		v, beyond := percentile(s, p)
		if beyond < minBeyond {
			return out, fmt.Errorf("p%g: only %d of %d samples lie beyond it (need %d)", float64(p)/10, beyond, len(s), minBeyond)
		}
		if math.IsInf(v, 1) {
			return out, fmt.Errorf("p%g: failed arrivals reach the percentile", float64(p)/10)
		}
		out[i] = v
	}
	return out, nil
}

// latencies reports latencyPercentiles of samplesNs in microseconds as
// <prefix>p50_us, <prefix>p99_us and <prefix>p999_us, noting the sample
// count.
func (r *report) latencies(prefix string, samplesNs []float64) error {
	v, err := latencyPercentiles(samplesNs)
	if err != nil {
		return fmt.Errorf("%s: %v", prefix, err)
	}
	n := len(samplesNs)
	for i, name := range []string{"p50", "p99", "p999"} {
		r.set(prefix+name+"_us", "us", v[i]/1e3)
	}
	r.note("%sp50/p99/p999 = %.3f/%.3f/%.3f us over n=%d samples (%d beyond p99.9)",
		prefix, v[0]/1e3, v[1]/1e3, v[2]/1e3, n, n-(n*999+999)/1000)
	return nil
}

func (r *report) printNotes(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
}
