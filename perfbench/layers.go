package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"dvfsched/internal/obs"
)

// perLayerMetrics lists every per-layer metric with its unit. A traced
// run reports all of them; a layer the workload leaves idle reads 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"traced.latency_p50_ms", "ms"},
	{"traced.latency_p95_ms", "ms"},
	{"traced.latency_p99_ms", "ms"},
	{"traced.throughput_rps", "1/s"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent_ratio", "ratio"},
	{"loadgen.latency_samples", "count"},
	{"http.overhead_p50_us", "us"},
	{"server.submit_p50_us", "us"},
	{"server.submit_p99_us", "us"},
	{"server.batch_size_mean", "count"},
	{"server.batches", "count"},
	{"server.plan_hit_p50_us", "us"},
	{"server.plan_miss_p50_us", "us"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.plan_cache_lookups", "count"},
	{"server.rejected", "count"},
	{"server.drain_p50_ms", "ms"},
	{"server.events_p50_ms", "ms"},
	{"core.admit_p50_us", "us"},
	{"core.admit_p99_us", "us"},
	{"core.drain_ms", "ms"},
	{"core.plan_batch_p50_ms", "ms"},
	{"core.events_per_task", "ratio"},
	{"obs.jsonl_bytes_per_event", "B"},
	{"obs.binary_bytes_per_event", "B"},
	{"cluster.forward_share", "ratio"},
	{"cluster.submits", "count"},
	{"cluster.forward_p50_us", "us"},
	{"cluster.ack_wait_p50_us", "us"},
	{"cluster.ack_wait_p99_us", "us"},
	{"cluster.frames_per_submit", "ratio"},
	{"cluster.frame_sessions_mean", "count"},
	{"cluster.frame_events_mean", "count"},
	{"cluster.replica_frame_p50_us", "us"},
	{"cluster.heals", "count"},
	{"cluster.promotions", "count"},
	{"cluster.replication_errors", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// endToEndMetrics lists every end-to-end metric with its unit.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"finish_s", "s"},
	{"cost_per_gcycle", "cents/Gcyc"},
	{"heap_peak_mb", "MB"},
}

// zeroLayers fills in the per-layer metrics a workload did not touch.
func zeroLayers(res *result) {
	for _, m := range perLayerMetrics {
		if _, ok := res.perLayer[m.name]; !ok {
			res.layer(m.name, 0, m.unit)
		}
	}
}

// deltaSum returns the summed change of a histogram across nodes
// between two sets of registry snapshots.
func deltaSum(before, after []obs.Snapshot, name string) obs.HistogramSnapshot {
	var sum obs.HistogramSnapshot
	for i := range after {
		a, ok := after[i].Histograms[name]
		if !ok {
			continue
		}
		d := histDelta(before[i].Histograms[name], a)
		sum = mergeHist(sum, d)
	}
	return sum
}

// counterDelta is the summed change of a counter across nodes.
func counterDelta(before, after []obs.Snapshot, name string) float64 {
	var d float64
	for i := range after {
		d += after[i].Counters[name] - before[i].Counters[name]
	}
	return d
}

// registryLayers reports the server and cluster metrics the program's
// own registries counted during the timed phases.
func (r *judgeRun) registryLayers() {
	res := r.res
	batches := histMean(deltaSum(r.regOpen, r.regEnd, obs.ServerSessionBatchSize))
	res.layer("server.batch_size_mean", batches.Value(), "count")
	res.layer("server.batches", batches.Base, "count")
	res.layer("server.rejected", counterDelta(r.regZero, r.regLast, obs.ServerRejected), "count")
	if len(r.sys.nodes) == 1 {
		return
	}
	timed := r.cfg.Conns * (r.cfg.OpenPerConn + r.cfg.ClosedPerConn)
	ack := deltaSum(r.regOpen, r.regEnd, obs.ClusterShipAckWait)
	res.layer("cluster.ack_wait_p50_us", ack.Quantile(0.5)*1e6, "us")
	res.layer("cluster.ack_wait_p99_us", ack.Quantile(0.99)*1e6, "us")
	frames := counterDelta(r.regOpen, r.regEnd, obs.ClusterShipFrames)
	res.layer("cluster.frames_per_submit", ratio{frames, float64(timed)}.Value(), "ratio")
	res.layer("cluster.frame_sessions_mean", histMean(deltaSum(r.regOpen, r.regEnd, obs.ClusterShipFrameSessions)).Value(), "count")
	res.layer("cluster.frame_events_mean", histMean(deltaSum(r.regOpen, r.regEnd, obs.ClusterShipFrameEvents)).Value(), "count")
	res.layer("cluster.heals", counterDelta(r.regZero, r.regLast, obs.ClusterShipHeals), "count")
	res.layer("cluster.promotions", counterDelta(r.regZero, r.regLast, obs.ClusterPromotions), "count")
	res.layer("cluster.replication_errors", counterDelta(r.regZero, r.regLast, obs.ClusterReplicationErrors), "count")

	var fwd, all float64
	for s, id := range r.ids {
		n := float64(len(r.recs[s]))
		all += n
		if r.sys.owner(id) != r.entry(s) {
			fwd += n
		}
	}
	res.layer("cluster.forward_share", ratio{fwd, all}.Value(), "ratio")
	res.layer("cluster.submits", all, "count")
	res.note("cluster: %.0f of %.0f submits forwarded; %.0f frames for %d timed submits; ack wait p50 %.1f us over %d acks",
		fwd, all, frames, timed, ack.Quantile(0.5)*1e6, ack.Count)
}

// entry is the index of the node session s's connection enters at.
func (r *judgeRun) entry(s int) int { return (s / r.cfg.SessionsPerConn) % len(r.sys.nodes) }

// spanIndex groups a traced run's spans for matching.
type spanIndex struct {
	spans []span // sorted by start
}

func newSpanIndex(log *spanLog) spanIndex {
	log.mu.Lock()
	spans := append([]span(nil), log.spans...)
	log.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spanIndex{spans: spans}
}

// where returns the spans (in start order) that satisfy keep.
func (x spanIndex) where(keep func(sp span) bool) []span {
	var out []span
	for _, sp := range x.spans {
		if keep(sp) {
			out = append(out, sp)
		}
	}
	return out
}

// clientSpans returns the entry-node spans of one client connection's
// requests of one kind, in send order.
func (x spanIndex) clientSpans(c *client, kind spanKind) []span {
	local := c.localAddrs()
	return x.where(func(sp span) bool {
		return sp.Kind == kind && slices.Contains(local, sp.Remote)
	})
}

// overheads pairs each client-side sample with the handler span of the
// same request and returns the client's self time in µs: what the
// request spent outside the node's handler (HTTP encode, loopback,
// server read and write).
func overheads(samples []sample, spans []span) ([]float64, error) {
	if len(samples) != len(spans) {
		return nil, fmt.Errorf("trace: %d client requests but %d handler spans", len(samples), len(spans))
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		parent := interval{s.Sent, s.Done}
		if spans[i].Start < parent.Start || spans[i].End > parent.End {
			return nil, fmt.Errorf("trace: handler span %v..%v lies outside its request %v..%v",
				spans[i].Start, spans[i].End, parent.Start, parent.End)
		}
		out[i] = float64(selfTime(parent, []interval{spans[i].interval})) / float64(time.Microsecond)
	}
	return out, nil
}

// spanDurations returns span durations in the given unit.
func spanDurations(spans []span, unit time.Duration) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = float64(sp.End-sp.Start) / float64(unit)
	}
	return out
}

// spanLayers derives the http, server and cluster metrics from the
// handler spans of a traced judge run.
func (r *judgeRun) spanLayers() error {
	x := newSpanIndex(r.spans)
	res := r.res
	var over []float64
	for c, cl := range r.clients {
		o, err := overheads(r.samples[c], x.clientSpans(cl, kindSubmit))
		if err != nil {
			return fmt.Errorf("connection %d: %w", c, err)
		}
		over = append(over, o...)
	}
	res.layer("http.overhead_p50_us", percentile(over, 0.5).Value, "us")

	var submit, drain, events, forward []float64
	for s, id := range r.ids {
		owner := r.sys.owner(id)
		owned := func(kind spanKind) []span {
			return x.where(func(sp span) bool { return sp.Node == owner && sp.Session == id && sp.Kind == kind })
		}
		own := owned(kindSubmit)
		submit = append(submit, spanDurations(own, time.Microsecond)...)
		drain = append(drain, spanDurations(owned(kindDrain), time.Millisecond)...)
		events = append(events, spanDurations(owned(kindEvents), time.Millisecond)...)
		if entry := r.entry(s); entry != owner {
			in := x.where(func(sp span) bool { return sp.Node == entry && sp.Session == id && sp.Kind == kindSubmit })
			if len(in) != len(own) {
				return fmt.Errorf("trace: session %s has %d entry spans but %d owner spans", id, len(in), len(own))
			}
			for i := range in {
				forward = append(forward, float64(selfTime(in[i].interval, []interval{own[i].interval}))/float64(time.Microsecond))
			}
		}
	}
	res.layer("server.submit_p50_us", percentile(submit, 0.5).Value, "us")
	res.layer("server.submit_p99_us", percentile(submit, 0.99).Value, "us")
	res.layer("server.drain_p50_ms", percentile(drain, 0.5).Value, "ms")
	res.layer("server.events_p50_ms", percentile(events, 0.5).Value, "ms")
	if len(r.sys.nodes) > 1 {
		res.layer("cluster.forward_p50_us", percentile(forward, 0.5).Value, "us")
		frames := spanDurations(x.where(func(sp span) bool { return sp.Kind == kindFrame }), time.Microsecond)
		res.layer("cluster.replica_frame_p50_us", percentile(frames, 0.5).Value, "us")
	}
	res.note("spans: %d handler spans; http overhead p50 %.1f us over %d requests", len(x.spans), percentile(over, 0.5).Value, len(over))
	return nil
}

// heapSampler polls the Go heap's live-object bytes and keeps the peak.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  float64 // written by the sampler goroutine until done closes
}

// heapSamplePeriod is how often the sampler reads the heap size.
const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSamplePeriod)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return h.peak
}
