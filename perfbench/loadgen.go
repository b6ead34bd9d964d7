package main

import (
	"time"
)

// sample is one request's client-side timing, relative to a shared
// base instant. In an open loop Due is when the schedule wanted the
// request sent; in a closed loop it equals Sent.
type sample struct {
	Due, Sent, Done time.Duration
	Failed          bool
}

// Latency is the time from when the request was due to its reply, so
// a stall also charges the requests queued behind it.
func (s sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Sent - s.Due }

// sendFunc sends request i of one connection and reports whether it
// failed. It must not encode anything: bodies are built before timing.
type sendFunc func(i int) bool

// openLoop drives one connection through a fixed-rate schedule: due[i]
// is request i's send time after base. It sleeps only while nothing is
// due and, on each wake, sends every request that has come due, back
// to back, so the coarse sleep granularity of small VMs (a sub-ms
// sleep can take a full ms) delays requests but never drops or thins
// them. out receives one sample per request.
func openLoop(base time.Time, due []time.Duration, send sendFunc, out []sample) {
	for i := 0; i < len(due); {
		if wait := due[i] - time.Since(base); wait > 0 {
			time.Sleep(wait)
		}
		for i < len(due) && due[i] <= time.Since(base) {
			sent := time.Since(base)
			failed := send(i)
			out[i] = sample{Due: due[i], Sent: sent, Done: time.Since(base), Failed: failed}
			i++
		}
	}
}

// closedLoop sends requests 0..len(out)-1 back to back, each as soon
// as the previous reply is in.
func closedLoop(base time.Time, send sendFunc, out []sample) {
	for i := range out {
		sent := time.Since(base)
		failed := send(i)
		out[i] = sample{Due: sent, Sent: sent, Done: time.Since(base), Failed: failed}
	}
}

// schedule returns the due times of one connection's share of an open
// loop offering rate requests/second over conns connections: request
// j of connection c is due at (j*conns+c)/rate, so the connections
// interleave into one even stream.
func schedule(n, conn, conns int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for j := range due {
		due[j] = time.Duration(float64(j*conns+conn) / rate * float64(time.Second))
	}
	return due
}

// loadStats summarizes an open loop's samples across connections.
type loadStats struct {
	Latency, Late quantile // p50s
	LatencyP95    quantile
	LatencyP99    quantile // or the highest percentile with minTail beyond
	LateTail      quantile // p99
	Sent, Offered int
	// SentRatio is the achieved send rate over the offered one: 1 means
	// the generator kept its schedule, less means it thinned the load.
	SentRatio float64
}

// summarizeOpen computes latency and lateness percentiles over all
// samples and the achieved-to-offered send-rate ratio. segments holds
// one entry per stretch of the open loop, each with every connection's
// samples of that stretch; the achieved rate counts the time inside
// the stretches, not the gaps between them.
func summarizeOpen(segments [][]sample, rate float64) loadStats {
	var lat, late []float64
	var intervals, span float64
	st := loadStats{}
	for _, seg := range segments {
		st.Offered += len(seg)
		var first, last time.Duration = -1, 0
		sent := 0
		for _, s := range seg {
			if s.Done == 0 {
				continue // never sent
			}
			sent++
			lat = append(lat, s.Latency().Seconds()*1e3)
			late = append(late, s.Late().Seconds()*1e3)
			if first < 0 || s.Sent < first {
				first = s.Sent
			}
			last = max(last, s.Sent)
		}
		st.Sent += sent
		if sent > 1 {
			intervals += float64(sent - 1)
			span += (last - first).Seconds()
		}
	}
	st.Latency = percentile(lat, 0.5)
	st.LatencyP95 = percentile(lat, 0.95)
	st.LatencyP99 = percentile(lat, 0.99)
	st.Late = percentile(late, 0.5)
	st.LateTail = percentile(late, 0.99)
	if span > 0 {
		st.SentRatio = intervals / span / rate
	}
	return st
}
