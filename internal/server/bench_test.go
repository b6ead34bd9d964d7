package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"dvfsched/internal/trace"
)

func benchPost(b *testing.B, url string, body any) *http.Response {
	b.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return resp
}

func drainClose(resp *http.Response) {
	var sink [4096]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// BenchmarkPlanCacheHit measures the planning plane's fast path: a
// repeated identical workload served from the LRU cache, full HTTP
// round trip included.
func BenchmarkPlanCacheHit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	req := PlanRequest{Tasks: benchTasks(32)}
	drainClose(benchPost(b, ts.URL+"/v1/plan", req)) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainClose(benchPost(b, ts.URL+"/v1/plan", req))
	}
}

// BenchmarkPlanCacheHitHandler is BenchmarkPlanCacheHit without the
// client and the loopback: the pre-encoded body is served straight
// through ServeHTTP, so the time is the handler's own — body read,
// decode, canonical sort, hash, cache lookup and write.
func BenchmarkPlanCacheHitHandler(b *testing.B) {
	for _, n := range []int{32, 1000} {
		b.Run(strconv.Itoa(n)+"tasks", func(b *testing.B) {
			s := New(Config{})
			defer s.Close()
			body, err := json.Marshal(PlanRequest{Tasks: benchTasks(n)})
			if err != nil {
				b.Fatal(err)
			}
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/plan", rd)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req) // warm the cache
			if w.Code != http.StatusOK {
				b.Fatalf("warm-up: status %d %s", w.Code, w.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				w.Body.Reset()
				s.ServeHTTP(w, req)
			}
			b.StopTimer()
			var resp PlanResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || !resp.Cached {
				b.Fatalf("last reply not a cache hit: %s (%v)", w.Body, err)
			}
		})
	}
}

// BenchmarkDecodeSubmitBody measures reading and decoding a one-task
// Judge-trace submit body, the per-request decode of the session plane.
func BenchmarkDecodeSubmitBody(b *testing.B) {
	body := judgeSubmitBody(b)
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/tasks", rd)
	w := newDiscardResponseWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		var req SubmitRequest
		if err := decodeTasksBody(w, r, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCompute measures the planning plane with caching
// disabled: queue, worker pool, WBG, and response shaping per request.
func BenchmarkPlanCompute(b *testing.B) {
	s := New(Config{CacheSize: -1})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	req := PlanRequest{Tasks: benchTasks(32)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainClose(benchPost(b, ts.URL+"/v1/plan", req))
	}
}

// newBenchSession opens a session in-process and returns its submit
// path.
func newBenchSession(b *testing.B, s *Server) string {
	b.Helper()
	raw, err := json.Marshal(PlatformSpec{Cores: 4})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(raw)))
	if w.Code != http.StatusCreated {
		b.Fatalf("create session: %d %s", w.Code, w.Body)
	}
	var info SessionInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		b.Fatal(err)
	}
	return "/v1/sessions/" + info.ID + "/tasks"
}

// BenchmarkSessionSubmit measures the session plane's arrival path
// under parallel load, in-process (ServeHTTP, no sockets): concurrent
// single-task submissions racing into one shard exercise group-commit
// admission and the pooled response encoding. Arrivals advance one
// virtual second per submission so the engine completes work at the
// rate it arrives, as a live session would; clamp admits the
// submissions that lose the race into the shard.
func BenchmarkSessionSubmit(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	path := newBenchSession(b, s)
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := newDiscardResponseWriter()
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodPost, path, rd)
		buf := make([]byte, 0, 128)
		for pb.Next() {
			n := seq.Add(1)
			buf = append(buf[:0], `{"clamp":true,"tasks":[{"id":`...)
			buf = strconv.AppendInt(buf, n, 10)
			buf = append(buf, `,"cycles":2,"arrival":`...)
			buf = strconv.AppendInt(buf, n, 10)
			buf = append(buf, `}]}`...)
			rd.Reset(buf)
			s.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Errorf("submit %d: status %d", n, w.status)
				return
			}
		}
	})
}

// BenchmarkSessionSubmitSerial is the same path with one client: no
// coalescing opportunity, so the gap between the two benchmarks is the
// group-commit win.
func BenchmarkSessionSubmitSerial(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	path := newBenchSession(b, s)
	w := newDiscardResponseWriter()
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = append(buf[:0], `{"tasks":[{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"cycles":2,"arrival":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `}]}`...)
		rd.Reset(buf)
		s.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("submit %d: status %d", i, w.status)
		}
	}
}

func benchTasks(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 5 + float64(i%17)}
	}
	return recs
}
