package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

// loopSegments is how many stretches the open and the closed loop are
// each cut into. The stretches alternate (open, closed, open, ...), so
// the closed loop's few seconds are spread over the whole run and its
// rate averages the host's speed over that time rather than sampling
// one moment of it.
const loopSegments = 5

// setupRepeats is how many times a run sets the system up, each time
// from a freshly collected heap; setup_s is the median.
const setupRepeats = 41

// judgeConfig holds the judge workloads' constants; every request
// count scales with --seconds.
type judgeConfig struct {
	Nodes           int     `json:"nodes"`
	Conns           int     `json:"connections"`
	SessionsPerConn int     `json:"sessions_per_connection"`
	Spec            spec    `json:"platform"`
	WarmPerConn     int     `json:"warmup_requests_per_connection"`
	Rate            float64 `json:"open_rate_rps"`
	OpenPerConn     int     `json:"open_requests_per_connection"`
	ClosedPerConn   int     `json:"closed_requests_per_connection"`
	Segments        int     `json:"loop_segments"`
	TasksPerSession int     `json:"tasks_per_session"`
	SetupRepeats    int     `json:"setup_repeats"`
}

// spec is the platform every session and plan runs on: the Intel
// i7-950 rate table on 4 cores with cmd/dvfsload's cost constants.
type spec = server.PlatformSpec

var i7Spec = spec{Cores: 4, Platform: "i7", Re: 0.1, Rt: 0.4}

func newJudgeConfig(nodes, seconds int) judgeConfig {
	c := judgeConfig{
		Nodes:           nodes,
		Conns:           2,
		SessionsPerConn: 4,
		Spec:            i7Spec,
		WarmPerConn:     500,
		Rate:            1000,
		ClosedPerConn:   3000 * seconds,
		Segments:        loopSegments,
		SetupRepeats:    setupRepeats,
	}
	c.OpenPerConn = int(c.Rate) * seconds / c.Conns
	// Each connection sends its sessions' tasks round-robin, so the
	// per-connection total divides evenly over its sessions.
	c.TasksPerSession = (c.WarmPerConn + c.OpenPerConn + c.ClosedPerConn) / c.SessionsPerConn
	return c
}

// judgeTrace synthesizes one session's input: the Judge trace's
// published mix of interactive requests and code submissions, and its
// end-of-exam arrival ramp, cut down to n tasks at the trace's
// original arrival density.
func judgeTrace(seed int64, n int) ([]trace.Record, error) {
	jc := workload.DefaultJudgeConfig()
	total := jc.Interactive + jc.NonInteractive
	jc.NonInteractive = int(math.Round(float64(n) * float64(jc.NonInteractive) / float64(total)))
	jc.Interactive = n - jc.NonInteractive
	jc.Duration *= float64(n) / float64(total)
	tasks, err := jc.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	recs := make([]trace.Record, len(tasks))
	for i, t := range tasks {
		recs[i] = trace.FromTask(t)
	}
	return recs, nil
}

// judgeRun is the state of one judge workload run.
type judgeRun struct {
	cfg     judgeConfig
	base    time.Time
	sys     *system
	clients []*client
	ids     []string         // session IDs, connection c owns [c*SessionsPerConn, (c+1)*SessionsPerConn)
	recs    [][]trace.Record // per session, in submission order
	bodies  [][][]byte       // per session, per task: the encoded submit body
	samples [][]sample       // per connection, every submit in send order

	drains  []server.DrainResponse
	jsonl   [][]byte
	binary  [][]byte
	spans   *spanLog
	res     *result
	regOpen []obs.Snapshot // per node, before the open loop
	regEnd  []obs.Snapshot // per node, after the closed loop
	regZero []obs.Snapshot // per node, after setup
	regLast []obs.Snapshot // per node, after the trace reads
}

// acceptedOne is the prefix of a submit reply that accepted its task.
var acceptedOne = []byte(`{"accepted":1,`)

func runJudge(o options, nodes int) (*result, error) {
	cfg := newJudgeConfig(nodes, o.seconds)
	r := &judgeRun{cfg: cfg, base: time.Now(), res: newResult(cfg)}
	sessions := cfg.Conns * cfg.SessionsPerConn
	r.recs = make([][]trace.Record, sessions)
	r.bodies = make([][][]byte, sessions)
	for s := range r.recs {
		recs, err := judgeTrace(o.seed*1000+int64(s), cfg.TasksPerSession)
		if err != nil {
			return nil, err
		}
		r.recs[s] = recs
	}
	for s, recs := range r.recs {
		r.bodies[s] = make([][]byte, len(recs))
		for i := range recs {
			body, err := json.Marshal(server.SubmitRequest{Tasks: recs[i : i+1]})
			if err != nil {
				return nil, err
			}
			r.bodies[s][i] = body
		}
	}
	if o.trace {
		r.spans = &spanLog{base: r.base}
	}

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		r.closeSystem()
		runtime.GC()
		start := time.Now()
		if err := r.setup(); err != nil {
			r.closeSystem()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.closeSystem()
	if r.spans != nil {
		r.spans.mu.Lock()
		r.spans.spans = r.spans.spans[:0]
		r.spans.mu.Unlock()
	}
	r.regZero = r.snapshots()

	runtime.GC()
	peak := startHeapSampler()
	r.samples = make([][]sample, cfg.Conns)
	for c := range r.samples {
		r.samples[c] = make([]sample, cfg.WarmPerConn+cfg.OpenPerConn+cfg.ClosedPerConn)
	}

	// Warm-up: untimed closed loop.
	r.eachConn(func(c int) {
		closedLoop(r.base, r.sender(c, 0), r.samples[c][:cfg.WarmPerConn])
	})

	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	r.regOpen = r.snapshots()

	// The open loop at the offered rate, each request timed from its due
	// time, and the closed loop of a fixed request count, back to back,
	// in alternating stretches. Every connection's samples stay in send
	// order: warm-up, then open and closed stretches in turn.
	var open [][]sample // per open stretch, every connection's samples
	var closedLat []float64
	var closedWall, closedCPU time.Duration
	lo := cfg.WarmPerConn
	for k := 0; k < cfg.Segments; k++ {
		n := share(cfg.OpenPerConn, k, cfg.Segments)
		start := time.Since(r.base) + 5*time.Millisecond
		r.eachConn(func(c int) {
			due := schedule(n, c, cfg.Conns, cfg.Rate)
			for i := range due {
				due[i] += start
			}
			openLoop(r.base, due, r.sender(c, lo), r.samples[c][lo:lo+n])
		})
		var seg []sample
		for c := range r.samples {
			seg = append(seg, r.samples[c][lo:lo+n]...)
		}
		open = append(open, seg)
		lo += n

		n = share(cfg.ClosedPerConn, k, cfg.Segments)
		cpu, wall := cpuTime(), time.Now()
		r.eachConn(func(c int) {
			closedLoop(r.base, r.sender(c, lo), r.samples[c][lo:lo+n])
		})
		closedWall += time.Since(wall)
		closedCPU += cpuTime() - cpu
		for c := range r.samples {
			for _, s := range r.samples[c][lo : lo+n] {
				closedLat = append(closedLat, s.Latency().Seconds()*1e3)
			}
		}
		lo += n
	}
	r.regEnd = r.snapshots()
	runtime.ReadMemStats(&gcAfter)
	heapPeak := peak.stop()

	drainWall, readWall := r.finish()
	r.regLast = r.snapshots()

	for c := range r.samples {
		for i, s := range r.samples[c] {
			r.res.op(s.Failed, "conn %d submit %d failed", c, i)
		}
	}
	v := r.verify()

	ls := summarizeOpen(open, cfg.Rate)

	closedN := cfg.Conns * cfg.ClosedPerConn
	rps := float64(closedN) / closedWall.Seconds()
	res := r.res
	res.e2e("setup_s", median(setups), "s")
	res.e2e("latency_p50_ms", ls.Latency.Value, "ms")
	res.e2e("throughput_rps", rps, "1/s")
	res.e2e("finish_s", (drainWall + readWall).Seconds(), "s")
	res.e2e("cost_per_gcycle", v.costPerGcycle, "cents/Gcyc")
	res.e2e("heap_peak_mb", heapPeak/(1<<20), "MB")
	closedP50 := percentile(closedLat, 0.5)
	res.note("open loop: %d of %d offered submits sent at %.0f/s; latency p50 %.4f ms, p95 %.4f ms, p%g %.4f ms (n=%d); lateness p50 %.4f ms, p99 %.4f ms",
		ls.Sent, ls.Offered, cfg.Rate, ls.Latency.Value, ls.LatencyP95.Value, 100*ls.LatencyP99.Q, ls.LatencyP99.Value, ls.Latency.N, ls.Late.Value, ls.LateTail.Value)
	res.note("closed loop: %d submits in %d stretches, %.3f s = %.0f/s; %.3f CPU-s = %.0f/s on %d CPUs; latency p50 %.4f ms (n=%d)",
		closedN, cfg.Segments, closedWall.Seconds(), rps, closedCPU.Seconds(), capacity(closedN, closedCPU), runtime.GOMAXPROCS(0), closedP50.Value, closedP50.N)
	res.note("finish: drain %.4f s, trace read %.4f s mean of %d rounds (%d sessions, JSONL and binary)",
		drainWall.Seconds(), readWall.Seconds(), readRounds, len(r.ids))
	res.note("cost %.6g cents over %d tasks of %.6g Gcycles: %.6g cents per task, %.6g per Gcycle",
		v.cost, v.tasks, v.gcycles, ratio{v.cost, float64(v.tasks)}.Value(), v.costPerGcycle)

	// Per-layer metrics.
	res.layer("traced.latency_p50_ms", ls.Latency.Value, "ms")
	res.layer("traced.latency_p95_ms", ls.LatencyP95.Value, "ms")
	res.layer("traced.latency_p99_ms", ls.LatencyP99.Value, "ms")
	res.layer("traced.throughput_rps", rps, "1/s")
	res.layer("loadgen.late_p50_ms", ls.Late.Value, "ms")
	res.layer("loadgen.late_p99_ms", ls.LateTail.Value, "ms")
	res.layer("loadgen.sent_ratio", ls.SentRatio, "ratio")
	res.layer("loadgen.latency_samples", float64(ls.Latency.N), "count")
	res.layer("runtime.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC), "count")
	res.layer("runtime.gc_pause_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6, "ms")
	v.report(res)
	r.registryLayers()
	if r.spans != nil {
		if err := r.spanLayers(); err != nil {
			return nil, err
		}
	}
	zeroLayers(res)
	return res, nil
}

// setup boots the system, connects the clients and opens every
// session: what setup_s times.
func (r *judgeRun) setup() error {
	sys, err := startSystem(r.cfg.Nodes, r.spans)
	if err != nil {
		return err
	}
	r.sys = sys
	r.clients = make([]*client, r.cfg.Conns)
	for c := range r.clients {
		r.clients[c] = newClient(sys.nodes[c%len(sys.nodes)].url)
	}
	ids, err := r.sessionIDs()
	if err != nil {
		return err
	}
	r.ids = make([]string, len(ids))
	for s, want := range ids {
		var hdr http.Header
		if want != "" {
			hdr = http.Header{server.SessionIDHeader: {want}}
		}
		var info server.SessionInfo
		if err := r.clients[s/r.cfg.SessionsPerConn].call(http.MethodPost, "/v1/sessions", hdr, r.cfg.Spec, http.StatusCreated, &info); err != nil {
			return err
		}
		r.ids[s] = info.ID
	}
	return nil
}

// sessionIDs picks the session IDs to create: on a solo server none
// (the server mints them); on a cluster, IDs placed so that each
// connection's sessions are half owned by its entry node and half by
// another, which sends half of all submits through a forward hop.
func (r *judgeRun) sessionIDs() ([]string, error) {
	ids := make([]string, r.cfg.Conns*r.cfg.SessionsPerConn)
	n := len(r.sys.nodes)
	if n == 1 {
		return ids, nil
	}
	next := 0
	for s := range ids {
		c, k := s/r.cfg.SessionsPerConn, s%r.cfg.SessionsPerConn
		want := c % n // entry node
		if k >= r.cfg.SessionsPerConn/2 {
			want = (c + 1) % n
		}
		for ; ids[s] == ""; next++ {
			if next > 1<<16 {
				return nil, fmt.Errorf("no session ID maps to node %d", want)
			}
			if id := fmt.Sprintf("judge-%d", next); r.sys.owner(id) == want {
				ids[s] = id
			}
		}
	}
	return ids, nil
}

func (r *judgeRun) closeSystem() {
	for _, c := range r.clients {
		c.close()
	}
	if r.sys != nil {
		r.sys.close()
	}
	r.sys, r.clients = nil, nil
}

// share is stretch k's part of n requests cut into `of` stretches.
func share(n, k, of int) int { return (k+1)*n/of - k*n/of }

// eachConn runs fn once per connection, concurrently, and waits.
func (r *judgeRun) eachConn(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// sender returns the send function for connection c's requests
// starting at request index lo: request k goes to the connection's
// session k mod SessionsPerConn and carries that session's next task.
func (r *judgeRun) sender(c, lo int) sendFunc {
	cl := r.clients[c]
	reqs := make([]*http.Request, r.cfg.SessionsPerConn)
	for k := range reqs {
		req, err := cl.request(http.MethodPost, "/v1/sessions/"+r.ids[c*r.cfg.SessionsPerConn+k]+"/tasks")
		if err != nil {
			panic(err) // the URL is built from a listener address and a valid session ID
		}
		reqs[k] = req
	}
	return func(i int) bool {
		k := lo + i
		s := c*r.cfg.SessionsPerConn + k%r.cfg.SessionsPerConn
		status, err := cl.do(reqs[k%r.cfg.SessionsPerConn], r.bodies[s][k/r.cfg.SessionsPerConn])
		return err != nil || status != http.StatusOK || !bytes.HasPrefix(cl.reply.Bytes(), acceptedOne)
	}
}

// readRounds is how many times the finish phase reads every trace;
// the reported read time is their mean. Each round allocates about
// as much as a GC cycle lets the heap grow, so a single round's time
// depends on whether a collection fell into it; their mean counts
// the collections the reads cause, not where they fell.
const readRounds = 16

// finish drains every session, then reads every trace in JSONL and in
// binary readRounds times, each connection handling its own sessions;
// it returns the drain's wall time and the mean read round's. It
// starts from a collected heap, so the drain does not pay for the
// garbage the loops left.
func (r *judgeRun) finish() (drain, read time.Duration) {
	n := len(r.ids)
	r.drains = make([]server.DrainResponse, n)
	r.jsonl = make([][]byte, n)
	r.binary = make([][]byte, n)
	per := r.cfg.SessionsPerConn
	runtime.GC()
	start := time.Now()
	r.eachConn(func(c int) {
		for s := c * per; s < (c+1)*per; s++ {
			err := r.clients[c].call(http.MethodDelete, "/v1/sessions/"+r.ids[s], nil, nil, http.StatusOK, &r.drains[s])
			r.res.check(err)
		}
	})
	drain = time.Since(start)
	start = time.Now()
	for i := 0; i < readRounds; i++ {
		r.readTraces()
	}
	return drain, time.Since(start) / readRounds
}

// readTraces fetches every session's trace in both encodings.
func (r *judgeRun) readTraces() {
	per := r.cfg.SessionsPerConn
	r.eachConn(func(c int) {
		for s := c * per; s < (c+1)*per; s++ {
			for _, f := range []struct {
				query string
				dst   *[]byte
			}{{"jsonl", &r.jsonl[s]}, {"binary", &r.binary[s]}} {
				cl := r.clients[c]
				err := cl.call(http.MethodGet, "/v1/sessions/"+r.ids[s]+"/events?format="+f.query, nil, nil, http.StatusOK, nil)
				r.res.check(err)
				*f.dst = append((*f.dst)[:0], cl.reply.Bytes()...)
			}
		}
	})
}

// snapshots copies every node's metrics registry.
func (r *judgeRun) snapshots() []obs.Snapshot {
	out := make([]obs.Snapshot, len(r.sys.nodes))
	for i, nd := range r.sys.nodes {
		out[i] = nd.srv.Registry().Snapshot()
	}
	return out
}
