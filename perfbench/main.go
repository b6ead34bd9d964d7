// Command perfbench is dvfsched's end-to-end benchmark. It runs the
// program under test in this process on real loopback sockets — one
// server.Server, or a 2-node cluster wired like cmd/dvfschedd — drives
// one named workload through 2 client connections, checks every
// output against in-process oracles, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last
// line of standard output:
//
//	perfbench --workload judge-solo --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - judge-solo: 8 online sessions on one server, each fed its own
//     seeded Judge trace one task per request; a warm-up, an open loop
//     at a fixed offered rate, a closed loop of a fixed request count,
//     then every session is drained and its trace read in JSONL and
//     binary.
//   - judge-replicated: the same inputs through a 2-node cluster; each
//     connection enters at a different node, so half the submits take
//     a forward hop and every ack waits for the replica.
//   - plan-mix: a closed loop of POST /v1/plan requests, part repeats
//     from a pool the plan cache holds, the rest fresh workloads.
//
// The exit status is non-zero when any request fails or any output
// check fails. See README.md for the metrics and what moves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// procs is the GOMAXPROCS every run uses. The client and the program
// under test share this process; on 2 Ps a closed loop of 2
// connections ran for stretches on one P and for others on both, at
// rates up to 2x apart, so which mix a run got, not the program, set
// its throughput (on 2-vCPU Xeon VMs: IQR/median up to 0.30 over 10
// seeds, against under 0.09 on one P). One P makes a run measure the CPU
// time and the waiting a request costs; it cannot show a parallel
// speed-up or lock contention.
const procs = 1

// runLimit stops a wedged run before an outside deadline kills it
// without a result.
const runLimit = 170 * time.Second

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	runtime.GOMAXPROCS(procs)
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report to w. It
// returns false when a check failed; err is for runs that could not
// produce a result at all.
func run(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traced int
	fs.StringVar(&o.workload, "workload", "", "judge-solo, judge-replicated or plan-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "open-loop length in seconds; every request count scales with it")
	fs.IntVar(&traced, "trace", 0, "1 records per-request spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if o.seconds < 1 {
		return false, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if traced != 0 && traced != 1 {
		return false, fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	o.trace = traced == 1

	var res *result
	var err error
	switch o.workload {
	case "judge-solo":
		res, err = runJudge(o, 1)
	case "judge-replicated":
		res, err = runJudge(o, 2)
	case "plan-mix":
		res, err = runPlanMix(o)
	default:
		return false, fmt.Errorf("unknown --workload %q (want judge-solo, judge-replicated or plan-mix)", o.workload)
	}
	if err != nil {
		return false, err
	}
	return res.print(w, o)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports: its operations and checks,
// and both metric sets; print emits the one --trace selects.
type result struct {
	attempted, failed int
	config            any
	endToEnd          map[string]metric
	perLayer          map[string]metric
	notes             []string // sample counts and other context, printed before the result
}

func newResult(config any) *result {
	return &result{config: config, endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

// op counts one attempted operation or check and whether it failed,
// reporting failures on stderr.
func (r *result) op(failed bool, format string, args ...any) {
	r.attempted++
	if failed {
		r.failed++
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

// check counts a check that failed when err is non-nil.
func (r *result) check(err error) {
	if err != nil {
		r.op(true, "%v", err)
		return
	}
	r.op(false, "")
}

func (r *result) e2e(name string, v float64, unit string) { r.endToEnd[name] = metric{v, unit} }

func (r *result) layer(name string, v float64, unit string) { r.perLayer[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the environment, the workload constants, the notes and
// every metric as readable lines, then the machine-readable result as
// the last line.
func (r *result) print(w io.Writer, o options) (bool, error) {
	header := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"env": currentEnv(), "config": r.config,
	}
	raw, err := json.Marshal(header)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "run %s\n", raw)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	metrics := r.endToEnd
	if o.trace {
		metrics = r.perLayer
	}
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	ok := r.failed == 0
	raw, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{ok, r.attempted, r.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", raw)
	return ok, nil
}
