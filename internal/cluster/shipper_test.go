package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvfsched/internal/obs"
)

// TestClusterStreamFailoverReplicaDeath kills a session's replica
// holder while frames are in flight to it: the per-peer stream must
// fail over to the next ring candidate, carry the blocked waiters
// across, and keep acking — then the owner dies too and the session
// must still drain losslessly from the failover target's replica.
// This is the pipelined analogue of TestClusterFailover: the failure
// lands on the stream's far end instead of the submit's near end.
func TestClusterStreamFailoverReplicaDeath(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) { c.CheckpointEvery = 5 })
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	cands := tc.byID[front].node.Route(info.ID)
	owner, repl, third := cands[0], cands[1], cands[2]
	fronts := []string{owner, third} // repl is the one that dies

	if code, b := tc.do(owner, http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3, 4}, true)); code != http.StatusOK {
		t.Fatalf("warm-up submit: %d %s", code, b)
	}
	if _, ok := tc.byID[repl].node.replicas.get(info.ID); !ok {
		t.Fatalf("replica %s holds no state after an acked submit", repl)
	}

	const clients, batches, perBatch = 3, 8, 2
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { tc.kill(repl) }) }
	var mu sync.Mutex
	acked := map[int]bool{1: true, 2: true, 3: true, 4: true}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			myFronts := append([]string{fronts[c%len(fronts)]}, fronts...)
			for b := 0; b < batches; b++ {
				if c == 0 && b == batches/2 {
					kill() // replica holder dies with frames in flight
				}
				base := 1000*(c+1) + perBatch*b
				ids := make([]int, perBatch)
				for i := range ids {
					ids[i] = base + i + 1
				}
				if tc.submitRetry(myFronts, path, taskBatch(ids, true)) {
					mu.Lock()
					for _, id := range ids {
						acked[id] = true
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	kill()
	if t.Failed() {
		t.FailNow()
	}

	// Acks issued after the kill imply the stream re-homed: the only
	// live candidate left is the third node, so it must hold replica
	// state before the owner is allowed to die.
	if _, ok := tc.byID[third].node.replicas.get(info.ID); !ok {
		t.Fatalf("stream never failed over: %s holds no replica of %s", third, info.ID)
	}
	tc.kill(owner)

	dr := tc.drainRetry([]string{third}, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	if v := tc.byID[third].srv.Registry().Counter(obs.ClusterPromotions).Value(); v < 1 {
		t.Errorf("failover target %s promotions counter %v, want >= 1", third, v)
	}
	events := tc.fetchEvents([]string{third}, path)
	auditTrace(t, info.PlatformSpec, events, acked)
}

// TestClusterStreamHealsAckGap truncates the replica's log behind the
// owner's ack cursor and requires the very next submit to heal in-stream: the frame's
// gap result resets the cursor, the re-ship replays the full log, the
// waiter rides the heal to a normal ack, and the replica ends
// byte-identical to the owner's trace.
func TestClusterStreamHealsAckGap(t *testing.T) {
	tc := startCluster(t, 3, nil)
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	owner := tc.byID[front].node.Route(info.ID)[0]

	if code, b := tc.do(owner, http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}

	var rep *replica
	for _, id := range tc.ids {
		if r, ok := tc.byID[id].node.replicas.get(info.ID); ok {
			rep = r
		}
	}
	if rep == nil {
		t.Fatalf("no node holds a replica of %s after an acked submit", info.ID)
	}
	// Truncate to a NONZERO tail: a replica emptied to zero would accept
	// any re-ship as a fresh log, never reporting the gap this test is
	// about. Keeping event 1 forces the next frame (which starts past
	// the owner's ack cursor) to collide with lastSeq=1.
	rep.mu.Lock()
	if rep.log.len() < 2 {
		rep.mu.Unlock()
		t.Fatalf("replica holds %d events, need >= 2 to truncate", rep.log.len())
	}
	first := rep.log.chunks[0][0]
	rep.log = replicaLog{}
	rep.log.append(first)
	rep.lastSeq = first.Seq
	rep.mu.Unlock()

	// One submit, one request: the gap must be detected and healed
	// before this ack is released.
	if code, b := tc.do(owner, http.MethodPost, path+"/tasks", taskBatch([]int{4, 5}, true)); code != http.StatusOK {
		t.Fatalf("submit after replica truncation: %d %s", code, b)
	}
	if v := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipHeals).Value(); v < 1 {
		t.Errorf("owner heal counter %v after a forced gap, want >= 1", v)
	}

	ownerEvents, err := tc.byID[owner].srv.SessionEventsSince(info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep.mu.Lock()
	repLog := rep.log.snapshot()
	rep.mu.Unlock()
	if !bytes.Equal(obs.AppendBinary(nil, repLog), obs.AppendBinary(nil, ownerEvents)) {
		t.Fatalf("healed replica log diverges from owner trace: %d vs %d events", len(repLog), len(ownerEvents))
	}

	dr := tc.drainRetry([]string{owner}, path)
	if dr.Tasks != 5 {
		t.Errorf("drained %d tasks, want 5", dr.Tasks)
	}
	events := tc.fetchEvents([]string{owner}, path)
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true})
}

// TestClusterStreamMigrateRace races migrations and a drain against
// submits while the stream keeps a coalescing window open
// (ShipFlushInterval > 0, so frames are reliably in flight when the
// migration freezes the shard). Any individual migrate may win or
// lose; what must hold is the usual oracle — every acked task drains
// exactly once and the trace rebuilds byte-identically.
func TestClusterStreamMigrateRace(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) {
		c.CheckpointEvery = 4
		c.ShipFlushInterval = 2 * time.Millisecond
	})
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	owner := tc.byID[front].node.Route(info.ID)[0]
	targets := make([]string, 0, 2)
	for _, id := range tc.ids {
		if id != owner {
			targets = append(targets, id)
		}
	}
	fronts := []string{"n1", "n2", "n3"}

	if code, b := tc.do(front, http.MethodPost, path+"/tasks", taskBatch([]int{1, 2}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}
	var mu sync.Mutex
	acked := map[int]bool{1: true, 2: true}

	migrate := func(via, target string) {
		body := []byte(fmt.Sprintf(`{"target":%q}`, target))
		code, b, err := tc.try(via, http.MethodPost, "/v1/cluster/sessions/"+info.ID+"/migrate", body)
		if err != nil {
			t.Errorf("migrate to %s transport: %v", target, err)
			return
		}
		// 200: won. 409: lost to the other migration's freeze or the
		// drain. 404: the session already moved on or drained away.
		// 503/502: fences and mid-handoff refusals, which unfreeze and
		// keep the shard serving. All fail cleanly; the audit below is
		// the real assertion.
		switch code {
		case http.StatusOK, http.StatusConflict, http.StatusNotFound,
			http.StatusServiceUnavailable, http.StatusBadGateway:
		default:
			t.Errorf("migrate to %s: unexpected status %d %s", target, code, b)
		}
	}

	const clients, batches, perBatch = 3, 6, 2
	var wg sync.WaitGroup
	defer wg.Wait() // a Fatal below must not leave goroutines failing a done test
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			myFronts := append([]string{fronts[c%len(fronts)]}, fronts...)
			for b := 0; b < batches; b++ {
				base := 1000*(c+1) + perBatch*b
				ids := make([]int, perBatch)
				for i := range ids {
					ids[i] = base + i + 1
				}
				if tc.submitRetry(myFronts, path, taskBatch(ids, true)) {
					mu.Lock()
					for _, id := range ids {
						acked[id] = true
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond) // land inside the submit storm
		migrate(targets[0], targets[0])
		time.Sleep(15 * time.Millisecond)
		migrate(owner, targets[1])
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	dr := tc.drainRetry(fronts, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	events := tc.fetchEvents(fronts, path)
	auditTrace(t, info.PlatformSpec, events, acked)
}

// countingListener counts raw TCP accepts, which is how many
// connections the peer actually opened to this node.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestClusterStreamReusesConnections pins the shared tuned transport:
// many sequential replicated submits (each forcing its own frame —
// sequential clients never overlap a window) must ride a handful of
// TCP connections to the replica, not one per frame.
func TestClusterStreamReusesConnections(t *testing.T) {
	counters := map[string]*countingListener{}
	tc := startClusterWrapped(t, 2, nil, func(id string, ln net.Listener) net.Listener {
		cl := &countingListener{Listener: ln}
		counters[id] = cl
		return cl
	})

	// Pin the session to n1 so every frame flows n1 -> n2 and n2's
	// accept count sees only the replication plane.
	id := sessionsOwnedBy(t, tc, "n1", 1)[0]
	req, err := http.NewRequest(http.MethodPost, tc.byID["n1"].addr+"/v1/sessions", strings.NewReader(`{"cores":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Dvfs-Session-Id", id)
	resp, err := tc.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
	}
	path := "/v1/sessions/" + id

	const ships = 50
	for i := 1; i <= ships; i++ {
		if code, b := tc.do("n1", http.MethodPost, path+"/tasks", taskBatch([]int{i}, true)); code != http.StatusOK {
			t.Fatalf("submit %d: %d %s", i, code, b)
		}
	}

	frames := tc.byID["n1"].srv.Registry().Counter(obs.ClusterShipFrames).Value()
	if frames < ships {
		t.Fatalf("owner sent %v frames over %d sequential submits, want >= %d", frames, ships, ships)
	}
	if got := counters["n2"].accepted.Load(); got > 6 {
		t.Errorf("replica accepted %d connections for %v frames; the transport is not reusing connections", got, frames)
	}
}

// TestClusterStreamCoalesces pins the group commit: with a flush
// interval holding each window open briefly, a storm of concurrent
// single-task submits to one session must collapse into far fewer
// frames than submits — each frame's ack releasing every waiter it
// covers — and still drain to a clean audited trace.
func TestClusterStreamCoalesces(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) { c.ShipFlushInterval = 2 * time.Millisecond })
	front := tc.ids[0]
	info := tc.createSession(front, `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	owner := tc.byID[front].node.Route(info.ID)[0]

	const clients, batches = 16, 4
	var mu sync.Mutex
	acked := map[int]bool{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				id := 100*(c+1) + b + 1
				if tc.submitRetry([]string{owner}, path, taskBatch([]int{id}, true)) {
					mu.Lock()
					acked[id] = true
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	const submits = clients * batches
	frames := tc.byID[owner].srv.Registry().Counter(obs.ClusterShipFrames).Value()
	if frames > submits/2 {
		t.Errorf("%v frames for %d concurrent submits — the stream is not coalescing", frames, submits)
	}
	ships := tc.byID[owner].srv.Registry().Counter(obs.ClusterShips).Value()
	if ships < 1 {
		t.Errorf("ships counter %v, want >= 1", ships)
	}

	dr := tc.drainRetry([]string{owner}, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	events := tc.fetchEvents([]string{owner}, path)
	auditTrace(t, info.PlatformSpec, events, acked)
}
