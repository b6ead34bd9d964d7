package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/report"
	"dvfsched/internal/trace"
)

// newScheduler builds the in-process oracle for sp, configured the way
// the server configures its own sessions and plans.
func newScheduler(sp spec) (*core.Scheduler, error) {
	if sp.Platform != "i7" {
		return nil, fmt.Errorf("oracle: platform %q, want i7", sp.Platform)
	}
	return core.New(model.CostParams{Re: sp.Re, Rt: sp.Rt}, platform.Homogeneous(sp.Cores, platform.IntelI7950(), platform.Ideal{}))
}

// exact formats a cost the way byte-for-byte comparisons read it.
func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// judgeVerdict is what verifying a judge run measured on the way.
type judgeVerdict struct {
	cost          float64 // summed drain cost, cents
	tasks         int
	gcycles       float64 // summed task lengths
	costPerGcycle float64
	events        int
	jsonlBytes    int
	binaryBytes   int
	admit         []float64 // µs per serial core Submit
	drain         time.Duration
}

// verify checks every session: the drained task count against what was
// sent, the JSONL trace against the binary one, the trace's replayed
// cost against the drain report, and the drain cost against a serial
// core.OnlineSession replay of the same submissions. The replay's call
// times are the core layer's uncontended cost.
func (r *judgeRun) verify() judgeVerdict {
	var v judgeVerdict
	for s, id := range r.ids {
		d := r.drains[s]
		sent := r.sentTo(s)
		r.res.check(expect(d.Tasks == sent && sent == len(r.recs[s]),
			"session %s: drained %d tasks, %d accepted of %d sent", id, d.Tasks, sent, len(r.recs[s])))
		jev, err := obs.ReadJSONL(bytes.NewReader(r.jsonl[s]))
		r.res.check(wrap(err, "session %s: JSONL trace", id))
		bev, err := obs.ReadBinary(bytes.NewReader(r.binary[s]))
		r.res.check(wrap(err, "session %s: binary trace", id))
		r.res.check(sameEvents(jev, bev))
		r.res.check(wrap(replayMatchesDrain(r.cfg.Spec, jev, d.Tasks, d.TotalCost), "session %s", id))

		total, admit, drain, err := serialReplay(r.cfg.Spec, r.recs[s])
		r.res.check(wrap(err, "session %s: serial replay", id))
		r.res.check(expect(err != nil || exact(total) == exact(d.TotalCost),
			"session %s: serial core replay costs %s, the service drained %s", id, exact(total), exact(d.TotalCost)))
		v.admit = append(v.admit, admit...)
		v.drain += drain
		v.cost += d.TotalCost
		v.tasks += d.Tasks
		for _, rec := range r.recs[s] {
			v.gcycles += rec.Cycles
		}
		v.events += len(jev)
		v.jsonlBytes += len(r.jsonl[s])
		v.binaryBytes += len(r.binary[s])
	}
	v.costPerGcycle = ratio{v.cost, v.gcycles}.Value()
	return v
}

// report adds the core and obs layer metrics.
func (v judgeVerdict) report(res *result) {
	res.layer("core.admit_p50_us", percentile(v.admit, 0.5).Value, "us")
	res.layer("core.admit_p99_us", percentile(v.admit, 0.99).Value, "us")
	res.layer("core.drain_ms", v.drain.Seconds()*1e3, "ms")
	res.layer("core.events_per_task", ratio{float64(v.events), float64(v.tasks)}.Value(), "ratio")
	res.layer("obs.jsonl_bytes_per_event", ratio{float64(v.jsonlBytes), float64(v.events)}.Value(), "B")
	res.layer("obs.binary_bytes_per_event", ratio{float64(v.binaryBytes), float64(v.events)}.Value(), "B")
	res.note("core: %d serial submits, %d events (%.3f per task), drain %.3f ms total",
		len(v.admit), v.events, ratio{float64(v.events), float64(v.tasks)}.Value(), v.drain.Seconds()*1e3)
}

// sentTo counts the submits to session s the service accepted.
func (r *judgeRun) sentTo(s int) int {
	per := r.cfg.SessionsPerConn
	c, k := s/per, s%per
	n := 0
	for i, smp := range r.samples[c] {
		if i%per == k && !smp.Failed {
			n++
		}
	}
	return n
}

// serialReplay submits recs one task at a time to a fresh in-process
// online session, as the service received them, and drains it.
func serialReplay(sp spec, recs []trace.Record) (total float64, admit []float64, drain time.Duration, err error) {
	sched, err := newScheduler(sp)
	if err != nil {
		return 0, nil, 0, err
	}
	ctx := context.Background()
	sess, err := sched.OpenOnline(ctx)
	if err != nil {
		return 0, nil, 0, err
	}
	admit = make([]float64, len(recs))
	for i, rec := range recs {
		start := time.Now()
		err := sess.Submit(ctx, model.TaskSet{rec.Task()})
		admit[i] = float64(time.Since(start)) / float64(time.Microsecond)
		if err != nil {
			sess.Close()
			return 0, nil, 0, err
		}
	}
	start := time.Now()
	res, err := sess.Drain(ctx)
	drain = time.Since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	return res.TotalCost, admit, drain, nil
}

// sameEvents requires the JSONL and binary encodings of a trace to
// decode to the same events.
func sameEvents(a, b []obs.Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("JSONL trace has %d events, binary %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("event %d differs: JSONL %+v, binary %+v", i, a[i], b[i])
		}
	}
	return nil
}

// replayMatchesDrain replays a session's trace through
// report.TimelineFromEvents and the metrics sink and requires it to
// reproduce the drain report's task count and cost.
func replayMatchesDrain(sp spec, events []obs.Event, tasks int, cost float64) error {
	if _, err := report.TimelineFromEvents(events); err != nil {
		return fmt.Errorf("trace does not replay: %w", err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewMetricsSink(reg)
	for _, ev := range events {
		sink.Emit(ev)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.tasks.completed"]; math.Abs(got-float64(tasks)) > 0.5 {
		return fmt.Errorf("trace completes %v tasks, drain reports %d", got, tasks)
	}
	replayed := sp.Re*snap.Counters["sim.energy_j"] + sp.Rt*snap.Histograms["sim.turnaround_s"].Sum
	if math.Abs(replayed-cost) > 1e-6*math.Max(1, math.Abs(cost)) {
		return fmt.Errorf("replayed trace costs %v, drain reports %v", replayed, cost)
	}
	return nil
}

// expect returns an error built from format when ok is false.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// wrap prefixes a non-nil err with context.
func wrap(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
