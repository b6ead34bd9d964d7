package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"dvfsched/internal/obs"
)

// benchDiscardRW drops the response body, keeping only the status.
type benchDiscardRW struct {
	h      http.Header
	status int
}

func (w *benchDiscardRW) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *benchDiscardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchDiscardRW) WriteHeader(c int)           { w.status = c }

// sessionsOwnedBy returns n session IDs the current ring places on owner.
func sessionsOwnedBy(tb testing.TB, tc *testCluster, owner string, n int) []string {
	tb.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < 4096 && len(ids) < n; i++ {
		id := fmt.Sprintf("bench-%03d", i)
		if cands := tc.byID[owner].node.Route(id); len(cands) > 0 && cands[0] == owner {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		tb.Fatalf("only %d of %d bench session IDs map to %s", len(ids), n, owner)
	}
	return ids
}

// benchSessions is how many owner-resident sessions the benchmark
// drives. One hot session is the steepest case for the ack rendezvous
// (every submit waits on the same cursor) while still exercising the
// stream's group commit: submits that land while a frame is on the
// wire ride the next frame together. Raising this spreads load across
// shards, which on small CPU counts measures scheduler churn more
// than the replication plane.
const benchSessions = 1

// BenchmarkReplicatedSubmit measures the cluster mutation hot path —
// concurrent single-task submits across benchSessions owner-resident
// sessions with "acked implies replicated" held. `stream` replicates
// over the pipelined per-peer frame stream; `solo` is the same submit
// path with nothing to replicate to. Requests run in-process against
// the owner's handler and replication crosses a real loopback socket,
// so the gap between the two sub-benchmarks is the price of
// replication.
func BenchmarkReplicatedSubmit(b *testing.B) {
	for _, mode := range []struct {
		name  string
		nodes int
	}{
		// solo is the no-replication floor: a 1-node view never ships,
		// so this prices the cluster submit machinery alone.
		{"solo", 1},
		{"stream", 2},
	} {
		b.Run(mode.name, func(b *testing.B) {
			// Checkpoints snapshot the whole (growing) session, a cost
			// that scales with b.N and would drown the ship-path signal
			// being measured — park them.
			tc := startCluster(b, mode.nodes, func(c *Config) {
				c.CheckpointEvery = 1 << 30
			})
			owner := "n1"
			ids := sessionsOwnedBy(b, tc, owner, benchSessions)
			h := tc.byID[owner].node.Handler()

			paths := make([]string, len(ids))
			for i, id := range ids {
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader([]byte(`{"cores":2}`)))
				req.Header.Set("X-Dvfs-Session-Id", id)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					b.Fatalf("create %s: %d %s", id, rec.Code, rec.Body)
				}
				var info struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID != id {
					b.Fatalf("create returned %q (err %v), want %q", info.ID, err, id)
				}
				paths[i] = "/v1/sessions/" + id + "/tasks"
			}

			var seq atomic.Int64
			// 16 concurrent clients per GOMAXPROCS: replication is measured
			// under contention, where the stream's group commit amortizes
			// ships across concurrent submits.
			b.SetParallelism(16)
			b.ReportAllocs()
			b.ResetTimer()
			framesBefore := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipFrames).Value()
			b.RunParallel(func(pb *testing.PB) {
				w := &benchDiscardRW{}
				rd := bytes.NewReader(nil)
				req := httptest.NewRequest(http.MethodPost, paths[0], rd)
				buf := make([]byte, 0, 128)
				for pb.Next() {
					n := seq.Add(1)
					req.URL.Path = paths[int(n)%len(paths)]
					buf = append(buf[:0], `{"clamp":true,"tasks":[{"id":`...)
					buf = strconv.AppendInt(buf, n, 10)
					buf = append(buf, `,"cycles":2,"arrival":`...)
					buf = strconv.AppendInt(buf, n, 10)
					buf = append(buf, `}]}`...)
					rd.Reset(buf)
					req.Body = io.NopCloser(rd)
					h.ServeHTTP(w, req)
					if w.status != http.StatusOK {
						b.Errorf("submit %d: status %d", n, w.status)
						return
					}
				}
			})
			b.StopTimer()
			// frames/op shows the coalescing factor the stream achieved
			// (solo reports 0: it never ships).
			frames := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipFrames).Value() - framesBefore
			b.ReportMetric(frames/float64(b.N), "frames/op")
		})
	}
}
