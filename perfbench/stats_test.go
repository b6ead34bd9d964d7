package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"dvfsched/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		wantQ   float64
		wantVal float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly 10 beyond p99
		{2000, 0.99, 0.99, 1980},
		{100, 0.99, 0.9, 90}, // p99 of 100 would have 1 beyond: capped to p90
		{500, 0.99, 0.98, 490},
		{100, 0.5, 0.5, 50},
		{5, 0.5, 0, 1}, // fewer than 10 samples: nothing has 10 beyond, report the minimum
	} {
		got := percentile(seq(tc.n), tc.q)
		if got.N != tc.n || math.Abs(got.Q-tc.wantQ) > 1e-12 || math.Abs(got.Value-tc.wantVal) > 1e-12 {
			t.Errorf("percentile(1..%d, %v) = %+v, want value %v at q %v", tc.n, tc.q, got, tc.wantVal, tc.wantQ)
		}
	}
	if got := percentile(nil, 0.99); got != (quantile{}) {
		t.Errorf("percentile of no samples = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{Num: 1, Base: 4}
	if math.Abs(r.Value()-0.25) > 1e-12 || math.Abs(r.Base-4) > 1e-12 {
		t.Errorf("ratio{1,4} = %v over %v", r.Value(), r.Base)
	}
	if got := (ratio{Num: 3}).Value(); got != 0 {
		t.Errorf("ratio with zero base = %v, want 0 (not NaN or Inf)", got)
	}
	if got := histMean(obs.HistogramSnapshot{Count: 4, Sum: 10}); math.Abs(got.Value()-2.5) > 1e-12 || math.Abs(got.Base-4) > 1e-12 {
		t.Errorf("histMean = %v over %v", got.Value(), got.Base)
	}
}

// TestHistDeltaQuantiles checks that quantiles of the change between
// two registry snapshots see only the observations made in between.
func TestHistDeltaQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("x", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // before: all in the first bucket
	}
	before := reg.Snapshot().Histograms["x"]
	for i := 0; i < 10; i++ {
		h.Observe(3) // bucket (2,4]
	}
	for i := 0; i < 10; i++ {
		h.Observe(20) // +Inf bucket
	}
	after := reg.Snapshot().Histograms["x"]
	d := histDelta(before, after)
	if d.Count != 20 || math.Abs(d.Sum-230) > 1e-9 {
		t.Fatalf("delta count %d sum %v, want 20 and 230", d.Count, d.Sum)
	}
	if d.Counts[0] != 0 || d.Counts[2] != 10 || d.Counts[4] != 10 {
		t.Fatalf("delta counts %v", d.Counts)
	}
	if math.Abs(d.Min-2) > 1e-12 || math.Abs(d.Max-20) > 1e-12 {
		t.Errorf("delta min/max %v/%v, want the lowest filled bucket's edge 2 and the snapshot max 20", d.Min, d.Max)
	}
	if p := d.Quantile(0.25); p < 2 || p > 4 {
		t.Errorf("delta p25 = %v, want inside (2,4]: the earlier 0.5s must not count", p)
	}
	if p := d.Quantile(0.99); p <= 8 || p > 20 {
		t.Errorf("delta p99 = %v, want in the +Inf bucket, at most the max 20", p)
	}
	if whole := after.Quantile(0.5); whole > 1 {
		t.Errorf("whole-histogram median %v should still sit in the first bucket", whole)
	}
	empty := histDelta(after, after)
	if empty.Count != 0 || empty.Quantile(0.5) != 0 {
		t.Errorf("delta of identical snapshots = %+v, want empty", empty)
	}
	merged := mergeHist(mergeHist(obs.HistogramSnapshot{}, d), d)
	if merged.Count != 40 || merged.Counts[2] != 20 {
		t.Errorf("merge of two deltas = %+v", merged)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"one child", []interval{{10 * ms, 30 * ms}}, 80 * ms},
		{"overlapping children count once", []interval{{10 * ms, 20 * ms}, {15 * ms, 30 * ms}}, 80 * ms},
		{"child sticking out is clipped", []interval{{90 * ms, 120 * ms}}, 90 * ms},
		{"child outside", []interval{{200 * ms, 300 * ms}}, 100 * ms},
		{"disjoint children", []interval{{60 * ms, 70 * ms}, {0, 10 * ms}}, 80 * ms},
		{"child covers all", []interval{{0, 100 * ms}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestParsePlanReply(t *testing.T) {
	body := []byte(`{"plan":{"total_cost":1},"energy_cost":1.5,"time_cost":2,"total_cost":3.5e-7,"joules":1,"makespan_s":2,"turnaround_sum_s":3,"cached":true}` + "\n")
	cost, cached, err := parsePlanReply(body)
	if err != nil || math.Abs(cost-3.5e-7) > 1e-20 || !cached {
		t.Errorf("parsePlanReply = %v %v %v", cost, cached, err)
	}
	if _, _, err := parsePlanReply([]byte(`{"error":{}}`)); err == nil {
		t.Error("reply without total_cost parsed")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		method, path string
		kind         spanKind
		id           string
	}{
		{"POST", "/v1/sessions/s-1/tasks", kindSubmit, "s-1"},
		{"DELETE", "/v1/sessions/s-1", kindDrain, "s-1"},
		{"GET", "/v1/sessions/s-1/events", kindEvents, "s-1"},
		{"POST", "/v1/plan", kindPlan, ""},
		{"POST", "/v1/cluster/replica/frame", kindFrame, ""},
		{"GET", "/healthz", kindOther, ""},
	} {
		if kind, id := classify(tc.method, tc.path); kind != tc.kind || id != tc.id {
			t.Errorf("classify(%s %s) = %v %q", tc.method, tc.path, kind, id)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
