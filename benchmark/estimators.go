package main

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// sample is one committed client transaction. Clients append samples to a
// private buffer; nothing on the timed path is shared between clients.
type sample struct {
	end   int64  // completion time, ns since the run epoch
	lat   uint32 // latency in ns (clamped at ~4.29 s)
	write bool   // the transaction wrote at least one row
}

// window is a measurement interval cut into n equal slices. A sample belongs
// to the slice its completion time falls in: no sampler goroutine has to wake
// up on time for the cut to be exact.
type window struct {
	start    int64 // ns since the run epoch
	sliceLen int64 // ns
	n        int
}

func (w window) end() int64 { return w.start + int64(w.n)*w.sliceLen }

// sliceOf returns the slice holding a completion time, or -1 outside the
// window.
func (w window) sliceOf(end int64) int {
	if end < w.start || end >= w.end() {
		return -1
	}
	return int((end - w.start) / w.sliceLen)
}

// bucket distributes the latencies of the kept samples over the window's
// slices by completion time and sorts each slice. keep == nil keeps
// everything.
func (w window) bucket(clients [][]sample, keep func(sample) bool) [][]uint32 {
	out := make([][]uint32, w.n)
	for _, samples := range clients {
		for _, s := range samples {
			if i := w.sliceOf(s.end); i >= 0 && (keep == nil || keep(s)) {
				out[i] = append(out[i], s.lat)
			}
		}
	}
	for _, lat := range out {
		slices.Sort(lat)
	}
	return out
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// errTooFew reports a slice with too few samples for the statistic asked.
var errTooFew = errors.New("too few samples")

// percentile returns the nearest-rank p-quantile of sorted latencies. It
// refuses a quantile with fewer than minBeyond samples above it: a p99 over
// 200 samples is the second-largest value, which is noise, not a tail.
func percentile(sorted []uint32, p float64, minBeyond int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.3f of no samples: %w", p, errTooFew)
	}
	rank := int(p*float64(n) + 0.999999) // ceil(p*n), tolerant of float error
	rank = min(max(rank, 1), n)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.3f of %d samples has %d beyond it, need %d: %w", p, n, beyond, minBeyond, errTooFew)
	}
	return float64(sorted[rank-1]), nil
}

// medianOfSlices applies a per-slice statistic to every (sorted) slice and
// returns the median of the results, the results, and how many slices were
// starved. One stalled slice (the sandbox steals a core for 100 ms about one
// time in ten) moves a whole-window mean by several percent and the median
// over slices not at all. A starved slice — too few samples for the statistic,
// because the clients stalled through most of it — counts as the value
// starved, the worst the statistic can be: leaving it out would let a change
// that stalls more slices look better.
func medianOfSlices(sortedSlices [][]uint32, stat func(sorted []uint32) (float64, error), starved float64) (v float64, perSlice []float64, nStarved int) {
	for _, sorted := range sortedSlices {
		v, err := stat(sorted)
		if err != nil {
			v = starved
			nStarved++
		}
		perSlice = append(perSlice, v)
	}
	return median(perSlice), perSlice, nStarved
}

// interval is a half-open time range in ns.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its child spans cover
// (children are clipped to the parent and overlapping children count once).
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered, reach := int64(0), parent.start
	for _, c := range cs {
		if c.end > reach {
			covered += c.end - max(c.start, reach)
			reach = c.end
		}
	}
	return parent.end - parent.start - covered
}
