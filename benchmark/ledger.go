package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"regimap/internal/obs"
)

// This file holds the benchmark's own arithmetic: percentiles and the tail
// rule, self time from nested spans, per-class sums over interleaved spans,
// and the determinism comparator. ledger_test.go pins each of them.

// minBeyondTail is how many samples must lie above the tail percentile in
// one run for the percentile to be reported (choosing-metrics: "the highest
// percentile that has at least ten samples beyond it").
const minBeyondTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, and how many samples lie strictly beyond that rank.
func percentile(sorted []float64, p float64) (val float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailPercentile is the highest whole percentile of an n-sample run that
// still leaves minBeyondTail samples beyond its rank (0 when n is too small
// for any).
func tailPercentile(n int) float64 {
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if rank >= 1 && n-rank >= minBeyondTail {
			return float64(p)
		}
	}
	return 0
}

// tail returns the fixed tail percentile p of samples, refusing when the run
// holds fewer than minBeyondTail samples beyond it: a percentile that rests
// on a handful of samples does not repeat between runs.
func tail(samples []float64, p float64) (float64, error) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	v, beyond := percentile(sorted, p)
	if beyond < minBeyondTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, len(samples), beyond, minBeyondTail)
	}
	return v, nil
}

// median returns the 50th percentile (the mean of the middle pair for even
// counts).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// spanNode is one span in the nesting tree built by selfTimes.
type spanNode struct {
	ev       *obs.Event
	end      time.Duration
	children time.Duration // summed duration of direct children
}

// selfTimes attributes every span's self time — its duration minus the part
// its direct children cover — and sums it by span name. It requires the
// events of one goroutine (one tracer epoch), where spans nest by interval:
// a span that overlaps another without containing it is an error, because
// it means the events came from interleaved goroutines. Point events (zero
// duration) are ignored.
func selfTimes(events []obs.Event) (map[string]time.Duration, error) {
	spans := make([]*spanNode, 0, len(events))
	for i := range events {
		if events[i].Dur > 0 {
			spans = append(spans, &spanNode{ev: &events[i], end: events[i].Start + events[i].Dur})
		}
	}
	// Parents open no later than their children and, on a shared start,
	// last at least as long, so this order visits a parent first.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].ev.Start != spans[j].ev.Start {
			return spans[i].ev.Start < spans[j].ev.Start
		}
		return spans[i].ev.Dur > spans[j].ev.Dur
	})
	var stack []*spanNode
	for _, s := range spans {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.ev.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if s.end > parent.end {
				return nil, fmt.Errorf("span %s [%v,%v] overlaps %s [%v,%v] without nesting",
					s.ev.Name, s.ev.Start, s.end, parent.ev.Name, parent.ev.Start, parent.end)
			}
			parent.children += s.ev.Dur
		}
		stack = append(stack, s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.ev.Name] += s.ev.Dur - s.children
	}
	return out, nil
}

// classSelf is self time for interleaved traces, where intervals cannot be
// attributed to one parent: the summed duration of the parent class minus the
// summed duration of its child classes. It is exact whenever every child span
// runs inside exactly one parent span, which the engines guarantee for their
// own span hierarchy whatever goroutine emitted them.
func classSelf(events []obs.Event, parent string, children ...string) time.Duration {
	sums := durByName(events)
	self := sums[parent]
	for _, c := range children {
		self -= sums[c]
	}
	return self
}

// durByName sums span durations by name.
func durByName(events []obs.Event) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i := range events {
		out[events[i].Name] += events[i].Dur
	}
	return out
}

// countSpans counts events of the given name with a non-zero duration (a
// name used both for a span and for a point event counts only the spans).
func countSpans(events []obs.Event, name string) int64 {
	var n int64
	for i := range events {
		if events[i].Name == name && events[i].Dur > 0 {
			n++
		}
	}
	return n
}

// sumField totals an integer field over the events of one name.
func sumField(events []obs.Event, name, field string) int64 {
	var n int64
	for i := range events {
		if events[i].Name != name {
			continue
		}
		if v, ok := events[i].FieldVal(field); ok {
			n += v
		}
	}
	return n
}

// record is what must repeat exactly between two runs of the same program on
// the same workload: the result of every op, and every count the run made.
// Timings are excluded; everything here is a property of the op list.
type record struct {
	// Results maps a stable op identity to its outcome (e.g. "ii=4 mii=3").
	Results map[string]string `json:"results"`
	// Counts holds every deterministic count and quality figure.
	Counts map[string]float64 `json:"counts"`
}

// diffRecords lists every disagreement between two records, sorted; an empty
// list means the runs executed the same operations with the same results.
func diffRecords(want, got record) []string {
	var out []string
	for k, w := range want.Results {
		g, ok := got.Results[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("op %s: missing (was %s)", k, w))
		case g != w:
			out = append(out, fmt.Sprintf("op %s: %s, was %s", k, g, w))
		}
	}
	for k, g := range got.Results {
		if _, ok := want.Results[k]; !ok {
			out = append(out, fmt.Sprintf("op %s: unexpected (%s)", k, g))
		}
	}
	for k, w := range want.Counts {
		g, ok := got.Counts[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("count %s: missing (was %v)", k, w))
		case g != w:
			out = append(out, fmt.Sprintf("count %s: %v, was %v", k, g, w))
		}
	}
	for k, g := range got.Counts {
		if _, ok := want.Counts[k]; !ok {
			out = append(out, fmt.Sprintf("count %s: unexpected (%v)", k, g))
		}
	}
	sort.Strings(out)
	return out
}
