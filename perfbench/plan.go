package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/server"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

// planConfig holds the plan-mix workload's constants; the closed-loop
// request count scales with --seconds.
type planConfig struct {
	Conns int  `json:"connections"`
	Spec  spec `json:"platform"`
	// Pool workloads are posted once in the warm-up and then repeated;
	// the pool is far smaller than the server's 256-entry plan cache,
	// and repeats cycle through it, so every repeat is a cache hit.
	Pool        int     `json:"pool"`
	RepeatShare float64 `json:"repeat_share"`
	// Task counts are log-uniform in [MinTasks, MaxTasks], stratified
	// (one draw per equal-probability stratum, in seeded order) over the
	// pool and over the fresh plans, so a seed changes which plans run
	// but not the run's size profile. Cycles come from generators
	// rotating Uniform(1,100), Bimodal(5,80,0.2) and Pareto(2,2.5).
	MinTasks     int `json:"min_tasks"`
	MaxTasks     int `json:"max_tasks"`
	WarmFresh    int `json:"warmup_fresh"`
	Requests     int `json:"closed_requests"`
	FinishSweeps int `json:"finish_pool_sweeps"`
	SetupRepeats int `json:"setup_repeats"`
}

func newPlanConfig(seconds int) planConfig {
	return planConfig{
		Conns:        2,
		Spec:         i7Spec,
		Pool:         48,
		RepeatShare:  0.75,
		MinTasks:     20,
		MaxTasks:     1000,
		WarmFresh:    16,
		Requests:     2000 * seconds,
		FinishSweeps: 48 * seconds,
		SetupRepeats: setupRepeats,
	}
}

// planInput is one distinct plan workload. Only its encoded body is
// kept: the oracle decodes it again, as the server does, so the
// benchmark's own heap stays small beside the program's.
type planInput struct {
	body    []byte // the encoded POST /v1/plan body
	tasks   int
	gcycles float64 // summed task lengths
}

// planShape is a plan workload's size and cycle generator.
type planShape struct{ tasks, gen int }

// stratifiedShapes draws k shapes: one task count from each of k
// equal-probability strata of the log-uniform size distribution, the
// generators rotating over the strata so each sees every size range,
// in seeded order.
func stratifiedShapes(rng *rand.Rand, k int, cfg planConfig) []planShape {
	shapes := make([]planShape, k)
	span := float64(cfg.MaxTasks) / float64(cfg.MinTasks)
	for i := range shapes {
		u := (float64(i) + rng.Float64()) / float64(k)
		shapes[i] = planShape{tasks: int(math.Round(float64(cfg.MinTasks) * math.Pow(span, u))), gen: i % 3}
	}
	rng.Shuffle(k, func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	return shapes
}

// newPlanInput draws a workload of the given shape, its cycles from
// rng.
func newPlanInput(rng *rand.Rand, shape planShape, cfg planConfig) (planInput, error) {
	n := shape.tasks
	var tasks model.TaskSet
	var err error
	switch shape.gen {
	case 0:
		tasks, err = workload.Uniform(rng, n, 1, 100)
	case 1:
		tasks, err = workload.Bimodal(rng, n, 5, 80, 0.2)
	default:
		tasks, err = workload.Pareto(rng, n, 2, 2.5)
	}
	if err != nil {
		return planInput{}, err
	}
	recs := make([]trace.Record, len(tasks))
	var gcycles float64
	for j, t := range tasks {
		recs[j] = trace.FromTask(t)
		gcycles += t.Cycles
	}
	body, err := json.Marshal(server.PlanRequest{PlatformSpec: cfg.Spec, Tasks: recs})
	if err != nil {
		return planInput{}, err
	}
	return planInput{body: body, tasks: n, gcycles: gcycles}, nil
}

// decodeTasks recovers a plan body's tasks the way the server does.
func decodeTasks(body []byte) (model.TaskSet, error) {
	var req server.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	tasks := make(model.TaskSet, len(req.Tasks))
	for i, rec := range req.Tasks {
		tasks[i] = rec.Task()
	}
	return tasks, nil
}

// planPhase names the phase a plan request belongs to.
type planPhase uint8

const (
	phaseWarm planPhase = iota
	phaseLoop
	phaseFinish
)

// planReq is one plan request and what came back.
type planReq struct {
	input  int // index into planRun.inputs
	phase  planPhase
	sample sample
	failed bool
	cached bool
	cost   float64
}

// planRun is the state of one plan-mix run.
type planRun struct {
	cfg    planConfig
	base   time.Time
	inputs []planInput
	seq    []planReq // every request, in the order the connections take them
	served [][]int   // per connection, the indices into seq it sent, in order
	res    *result
}

func runPlanMix(o options) (*result, error) {
	cfg := newPlanConfig(o.seconds)
	r := &planRun{cfg: cfg, base: time.Now(), res: newResult(cfg), served: make([][]int, cfg.Conns)}
	rng := rand.New(rand.NewSource(o.seed))
	// One request sequence: the pool and some fresh plans to warm up,
	// the loop's mix of pool repeats (round-robin) and fresh plans, and
	// sweeps re-reading the pool. The connections pull requests from it
	// in order, so they never drift apart and a pool entry recurs every
	// Pool/RepeatShare requests in time as in the sequence: far fewer
	// distinct plans than a cache stripe holds pass between two uses.
	// Inputs 0..Pool-1 are the pool; fresh plans follow in order of use.
	repeat := make([]bool, cfg.Requests)
	repeats := 0
	for i := range repeat {
		if repeat[i] = rng.Float64() < cfg.RepeatShare; repeat[i] {
			repeats++
		}
	}
	shapes := append(stratifiedShapes(rng, cfg.Pool, cfg), stratifiedShapes(rng, cfg.WarmFresh+cfg.Requests-repeats, cfg)...)
	r.inputs = make([]planInput, len(shapes))
	for i, shape := range shapes {
		in, err := newPlanInput(rng, shape, cfg)
		if err != nil {
			return nil, err
		}
		r.inputs[i] = in
	}
	next := 0 // the next input to post
	for ; next < cfg.Pool+cfg.WarmFresh; next++ {
		r.seq = append(r.seq, planReq{input: next, phase: phaseWarm})
	}
	used := 0 // pool repeats so far
	for _, rep := range repeat {
		in := next
		if rep {
			in = used % cfg.Pool
			used++
		} else {
			next++
		}
		r.seq = append(r.seq, planReq{input: in, phase: phaseLoop})
	}
	for sweep := 0; sweep < cfg.FinishSweeps; sweep++ {
		for in := 0; in < cfg.Pool; in++ {
			r.seq = append(r.seq, planReq{input: in, phase: phaseFinish})
		}
	}
	var spans *spanLog
	if o.trace {
		spans = &spanLog{base: r.base}
	}

	var sys *system
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if sys, err = startSystem(1, spans); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close()
	if spans != nil {
		spans.mu.Lock()
		spans.spans = spans.spans[:0]
		spans.mu.Unlock()
	}
	clients := make([]*client, cfg.Conns)
	for c := range clients {
		clients[c] = newClient(sys.nodes[0].url)
		defer clients[c].close()
	}
	reg := sys.nodes[0].srv.Registry()
	regZero := reg.Snapshot()

	bounds := map[planPhase]interval{}
	var gcBefore, gcAfter runtime.MemStats
	var regLoop, regEnd obs.Snapshot
	var loopCPU time.Duration
	runtime.GC()
	peak := startHeapSampler()
	for _, phase := range []planPhase{phaseWarm, phaseLoop, phaseFinish} {
		if phase == phaseFinish {
			// The sweeps start from a collected heap, as the judge
			// drain does, so they do not pay for the loop's garbage.
			runtime.GC()
		}
		if phase == phaseLoop {
			runtime.ReadMemStats(&gcBefore)
			regLoop = reg.Snapshot()
			loopCPU = cpuTime()
		}
		start := time.Since(r.base)
		var wg sync.WaitGroup
		var next atomic.Int64
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r.send(clients[c], c, phase, &next)
			}(c)
		}
		wg.Wait()
		bounds[phase] = interval{start, time.Since(r.base)}
		if phase == phaseLoop {
			loopCPU = cpuTime() - loopCPU
			runtime.ReadMemStats(&gcAfter)
			regEnd = reg.Snapshot()
		}
	}
	heapPeak := peak.stop()
	regLast := reg.Snapshot()

	oracle := r.verify()

	var lat []float64
	var cost, gcycles float64
	var tasks int
	for _, q := range r.seq {
		if q.phase == phaseLoop {
			lat = append(lat, q.sample.Latency().Seconds()*1e3)
			cost += q.cost
			tasks += r.inputs[q.input].tasks
			gcycles += r.inputs[q.input].gcycles
		}
	}
	loop := bounds[phaseLoop]
	finish := (bounds[phaseFinish].End - bounds[phaseFinish].Start).Seconds()
	loopWall := (loop.End - loop.Start).Seconds()
	rps := float64(cfg.Requests) / loopWall
	p50, p95, p99 := percentile(lat, 0.5), percentile(lat, 0.95), percentile(lat, 0.99)
	res := r.res
	res.e2e("setup_s", median(setups), "s")
	res.e2e("latency_p50_ms", p50.Value, "ms")
	res.e2e("throughput_rps", rps, "1/s")
	res.e2e("finish_s", finish, "s")
	res.e2e("cost_per_gcycle", ratio{cost, gcycles}.Value(), "cents/Gcyc")
	res.e2e("heap_peak_mb", heapPeak/(1<<20), "MB")
	res.note("closed loop: %d plans (%d repeats) in %.3f s = %.1f/s; %.3f CPU-s = %.1f/s on %d CPUs; latency p50 %.4f ms, p95 %.4f ms, p%g %.4f ms (n=%d)",
		cfg.Requests, repeats, loopWall, rps, loopCPU.Seconds(), capacity(cfg.Requests, loopCPU), runtime.GOMAXPROCS(0), p50.Value, p95.Value, 100*p99.Q, p99.Value, p50.N)
	res.note("finish: %d sweeps over the %d pooled plans in %.4f s; %d distinct workloads; %d tasks of %.6g Gcycles in the loop",
		cfg.FinishSweeps, cfg.Pool, finish, len(r.inputs), tasks, gcycles)

	res.layer("traced.latency_p50_ms", p50.Value, "ms")
	res.layer("traced.latency_p95_ms", p95.Value, "ms")
	res.layer("traced.latency_p99_ms", p99.Value, "ms")
	res.layer("traced.throughput_rps", rps, "1/s")
	res.layer("loadgen.latency_samples", float64(p50.N), "count")
	res.layer("runtime.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC), "count")
	res.layer("runtime.gc_pause_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6, "ms")
	res.layer("core.plan_batch_p50_ms", percentile(oracle, 0.5).Value, "ms")
	res.layer("server.rejected", regLast.Counters[obs.ServerRejected]-regZero.Counters[obs.ServerRejected], "count")
	hits := regEnd.Counters[obs.ServerPlanCacheHits] - regLoop.Counters[obs.ServerPlanCacheHits]
	misses := regEnd.Counters[obs.ServerPlanCacheMisses] - regLoop.Counters[obs.ServerPlanCacheMisses]
	res.layer("server.plan_cache_hit_ratio", ratio{hits, hits + misses}.Value(), "ratio")
	res.layer("server.plan_cache_lookups", hits+misses, "count")
	if spans != nil {
		if err := r.spanLayers(spans, clients); err != nil {
			return nil, err
		}
	}
	zeroLayers(res)
	return res, nil
}

// send has connection c take the phase's requests from the shared
// sequence, next counting those taken, and post them back to back.
func (r *planRun) send(cl *client, c int, phase planPhase, next *atomic.Int64) {
	req, err := cl.request(http.MethodPost, "/v1/plan")
	if err != nil {
		panic(err) // the URL is built from a listener address
	}
	lo := 0
	for lo < len(r.seq) && r.seq[lo].phase != phase {
		lo++
	}
	for {
		i := lo + int(next.Add(1)) - 1
		if i >= len(r.seq) || r.seq[i].phase != phase {
			return
		}
		q := &r.seq[i]
		sent := time.Since(r.base)
		status, err := cl.do(req, r.inputs[q.input].body)
		q.sample = sample{Due: sent, Sent: sent, Done: time.Since(r.base)}
		q.failed = err != nil || status != http.StatusOK
		if !q.failed {
			q.cost, q.cached, err = parsePlanReply(cl.reply.Bytes())
			q.failed = err != nil
		}
		r.served[c] = append(r.served[c], i)
	}
}

// parsePlanReply reads total_cost and cached from a plan reply without
// decoding the plan document in front of them.
func parsePlanReply(b []byte) (cost float64, cached bool, err error) {
	key := []byte(`"total_cost":`)
	i := bytes.LastIndex(b, key)
	if i < 0 {
		return 0, false, fmt.Errorf("plan reply has no total_cost: %.200s", b)
	}
	rest := b[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false, fmt.Errorf("plan reply total_cost is not terminated")
	}
	cost, err = strconv.ParseFloat(string(rest[:j]), 64)
	return cost, bytes.Contains(rest, []byte(`"cached":true`)), err
}

// verify checks every reply: it succeeded, its cost byte-equals an
// in-process PlanBatch of the same workload, and it came from the
// cache exactly when the workload had been planned before. It returns
// the oracle's per-workload planning times in ms.
func (r *planRun) verify() []float64 {
	want := make([]string, len(r.inputs))
	times := make([]float64, 0, len(r.inputs))
	sched, err := newScheduler(r.cfg.Spec)
	r.res.check(err)
	if err != nil {
		return nil
	}
	for i, in := range r.inputs {
		tasks, err := decodeTasks(in.body)
		r.res.check(wrap(err, "decode workload %d", i))
		start := time.Now()
		plan, err := sched.PlanBatch(context.Background(), tasks)
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
		r.res.check(wrap(err, "oracle plan %d", i))
		if err == nil {
			_, _, total := plan.Cost()
			want[i] = exact(total)
		}
	}
	for k, q := range r.seq {
		r.res.op(q.failed, "plan request %d (workload %d) failed", k, q.input)
		if q.failed {
			continue
		}
		r.res.check(expect(exact(q.cost) == want[q.input],
			"workload %d: service planned cost %s, PlanBatch %s", q.input, exact(q.cost), want[q.input]))
		repeat := q.input < r.cfg.Pool && q.phase != phaseWarm
		r.res.check(expect(q.cached == repeat, "request %d, workload %d: cached=%v, want %v", k, q.input, q.cached, repeat))
	}
	return times
}

// spanLayers derives the http and server plan metrics from the handler
// spans of a traced run.
func (r *planRun) spanLayers(spans *spanLog, clients []*client) error {
	x := newSpanIndex(spans)
	var over, hit, miss []float64
	for c, cl := range clients {
		own := x.clientSpans(cl, kindPlan)
		samples := make([]sample, len(r.served[c]))
		for i, k := range r.served[c] {
			samples[i] = r.seq[k].sample
		}
		o, err := overheads(samples, own)
		if err != nil {
			return fmt.Errorf("connection %d: %w", c, err)
		}
		over = append(over, o...)
		for i, k := range r.served[c] {
			d := float64(own[i].End-own[i].Start) / float64(time.Microsecond)
			if r.seq[k].cached {
				hit = append(hit, d)
			} else {
				miss = append(miss, d)
			}
		}
	}
	r.res.layer("http.overhead_p50_us", percentile(over, 0.5).Value, "us")
	r.res.layer("server.plan_hit_p50_us", percentile(hit, 0.5).Value, "us")
	r.res.layer("server.plan_miss_p50_us", percentile(miss, 0.5).Value, "us")
	return nil
}
