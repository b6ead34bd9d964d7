// Command onlinesim runs the online-mode experiment of Fig. 3: Least
// Marginal Cost against Opportunistic Load Balancing and On-demand on
// a Judgegirl-like trace (synthesized or loaded from JSONL).
//
// Usage:
//
//	onlinesim [-cores 4] [-seed N] [-trace trace.jsonl]
//	          [-re 0.4] [-rt 0.1] [-scale 1]
//	          [-trace-out events.jsonl] [-trace-format jsonl|binary]
//	          [-metrics-out metrics.json]
//
// -trace-out dumps the LMC run's event stream, as JSONL by default or
// in the compact framed binary encoding with -trace-format=binary
// (cmd/traceinfo and the report replayer auto-detect either). The
// report package replays such a dump into the same Gantt/CSV artifacts
// the simulator produces directly. -metrics-out writes the run's
// counter, gauge and histogram snapshot as JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"dvfsched/internal/experiments"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("onlinesim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("onlinesim", flag.ContinueOnError)
	var (
		cores       = fs.Int("cores", 4, "number of cores")
		seed        = fs.Int64("seed", 0, "trace seed (0 = default)")
		traceFile   = fs.String("trace", "", "JSONL online trace (default: synthesized Judgegirl-like)")
		re          = fs.Float64("re", 0.4, "Re, cents per joule")
		rt          = fs.Float64("rt", 0.1, "Rt, cents per second")
		scale       = fs.Float64("scale", 1, "synthesized-trace scale factor (0 < scale <= 1)")
		traceOut    = fs.String("trace-out", "", "write the LMC run's event stream")
		traceFormat = fs.String("trace-format", "jsonl", "event stream encoding for -trace-out: jsonl or binary")
		metricsOut  = fs.String("metrics-out", "", "write the LMC run's metrics snapshot as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("scale must be in (0, 1], got %v", *scale)
	}
	if *traceFormat != "jsonl" && *traceFormat != "binary" {
		return fmt.Errorf("unknown -trace-format %q (want jsonl or binary)", *traceFormat)
	}

	cfg := experiments.Fig3Config{
		Cores:  *cores,
		Seed:   *seed,
		Params: model.CostParams{Re: *re, Rt: *rt},
	}
	var reg *obs.Registry
	if *traceOut != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
		cfg.Sink = obs.NewMetricsSink(reg)
	}
	// traceWriter is either encoding's sink: both seal buffered frames
	// on Close and retain the first write error.
	type traceWriter interface {
		obs.Sink
		Close() error
	}
	var tw traceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if *traceFormat == "binary" {
			tw = obs.NewBinaryWriter(f)
		} else {
			tw = obs.NewJSONLWriter(f)
		}
		cfg.Sink = obs.Multi(tw, cfg.Sink)
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		tasks, rerr := trace.Read(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		cfg.Tasks = tasks
	} else if *scale < 1 {
		judge := workload.DefaultJudgeConfig()
		judge.Interactive = int(float64(judge.Interactive) * *scale)
		judge.NonInteractive = int(float64(judge.NonInteractive) * *scale)
		judge.Duration *= *scale
		cfg.Judge = judge
	}

	res, err := experiments.Fig3(cfg)
	if err != nil {
		return err
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", *traceOut, err)
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		werr := reg.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("writing %s: %w", *metricsOut, werr)
		}
	}
	fmt.Fprintln(w, "Fig. 3 — online-mode scheduler comparison:")
	for _, o := range []experiments.Outcome{res.LMC, res.OLB, res.OD} {
		fmt.Fprintf(w, "  %-12s energy %12.1f J | makespan %9.1f s | turnaround %12.1f s | cost: energy %10.1f + time %10.1f = %10.1f cents | preemptions %d\n",
			o.Policy, o.EnergyJ, o.MakespanS, o.TurnaroundS, o.EnergyCost, o.TimeCost, o.TotalCost, o.Preemptions)
	}
	fmt.Fprintf(w, "OLB/LMC: time %.3f  energy %.3f  total %.3f\n", res.OLBvsLMC[0], res.OLBvsLMC[1], res.OLBvsLMC[2])
	fmt.Fprintf(w, "OD /LMC: time %.3f  energy %.3f  total %.3f\n", res.ODvsLMC[0], res.ODvsLMC[1], res.ODvsLMC[2])

	// Where LMC spends its time: the frequency-residency histogram.
	rates := make([]float64, 0, len(res.LMCResidency))
	var busy float64
	for r, s := range res.LMCResidency {
		rates = append(rates, r)
		busy += s
	}
	sort.Float64s(rates)
	fmt.Fprintf(w, "LMC frequency residency (%.1f busy core-seconds):\n", busy)
	for _, r := range rates {
		fmt.Fprintf(w, "  %4.1f GHz: %6.1f s (%4.1f%%)\n", r, res.LMCResidency[r], 100*res.LMCResidency[r]/busy)
	}
	fmt.Fprintf(w, "interactive p99 response: LMC %.4f s, OLB %.4f s, OD %.4f s\n",
		res.LMC.InteractiveP99S, res.OLB.InteractiveP99S, res.OD.InteractiveP99S)
	return nil
}
