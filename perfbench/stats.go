package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dvfsched/internal/obs"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 over fewer than 1000 samples is really the maximum of a handful,
// so the reported percentile drops to the highest one with at least
// minTail samples above it.
const minTail = 10

// quantile is one percentile read off a sample set, with the
// percentile actually used and the sample count behind it.
type quantile struct {
	Value float64 // in the samples' unit
	Q     float64 // the percentile used, at most the one asked for
	N     int     // samples
}

// percentile returns the q-quantile of xs by nearest rank, lowered to
// the highest percentile that still has minTail samples beyond it. xs
// is sorted in place. An empty set reads as zero.
func percentile(xs []float64, q float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	sort.Float64s(xs)
	if limit := 1 - float64(minTail)/float64(n); q > limit {
		q = math.Max(limit, 0)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return quantile{Value: xs[rank-1], Q: q, N: n}
}

// median is the middle of xs (sorted in place), the mean of the two
// middle values for an even count. Unlike percentile it is not capped
// by minTail: a median of a few repeated measurements is what it
// reads, with its count stated wherever it is reported.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a share reported with its base, so "0.5" can be told apart
// from "1 of 2".
type ratio struct {
	Num, Base float64
}

// Value is Num/Base, or 0 when nothing was counted.
func (r ratio) Value() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Num / r.Base
}

// histDelta returns what a registry histogram observed between two
// snapshots of it. The delta's Min and Max are the edges of its
// outermost non-empty buckets (the snapshots' own extremes where those
// buckets are open-ended), so HistogramSnapshot.Quantile interpolates
// inside the buckets the interval actually filled.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]uint64, len(after.Counts)),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
	}
	first, last := -1, -1
	for i := range after.Counts {
		c := after.Counts[i]
		if i < len(before.Counts) {
			c -= before.Counts[i]
		}
		d.Counts[i] = c
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		d.Count, d.Sum = 0, 0
		return d
	}
	if first == 0 {
		d.Min = after.Min
	} else {
		d.Min = after.Bounds[first-1]
	}
	if last == len(after.Bounds) {
		d.Max = after.Max
	} else {
		d.Max = after.Bounds[last]
	}
	return d
}

// histMean is the mean observation of a histogram delta.
func histMean(h obs.HistogramSnapshot) ratio {
	return ratio{Num: h.Sum, Base: float64(h.Count)}
}

// interval is a half-open span of time [Start, End).
type interval struct {
	Start, End time.Duration
}

// selfTime is a span's duration minus the part of it its children
// cover: the time the span's own layer was busy or waiting on
// something other than the child layers. Children may overlap each
// other and stick out of the parent; only their union inside the
// parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// mergeHist adds two snapshots of histograms with the same bounds; an
// empty snapshot is the identity.
func mergeHist(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := obs.HistogramSnapshot{
		Bounds: a.Bounds,
		Counts: make([]uint64, len(a.Counts)),
		Count:  a.Count + b.Count,
		Sum:    a.Sum + b.Sum,
		Min:    math.Min(a.Min, b.Min),
		Max:    math.Max(a.Max, b.Max),
	}
	for i := range out.Counts {
		out.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// capacity is the request rate the process's GOMAXPROCS CPUs sustain
// at the CPU cost per request a closed loop measured: n requests that
// took cpu seconds of process CPU time, the client's share included.
// It is printed beside the wall-clock rate: it moves with the CPU a
// request costs and not with time spent waiting, so the two together
// tell a CPU regression from a wait regression.
func capacity(n int, cpu time.Duration) float64 {
	if cpu <= 0 {
		return 0
	}
	return float64(n) / cpu.Seconds() * float64(runtime.GOMAXPROCS(0))
}
