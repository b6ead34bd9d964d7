package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// replica is the cold standby state of one session owned elsewhere:
// the platform spec, the shipped event log, and the latest checkpoint.
// Nothing here is a live scheduler — promotion (Node.EnsureLocal)
// turns it into one only when the owner dies.
type replica struct {
	mu         sync.Mutex
	spec       server.PlatformSpec
	log        replicaLog
	lastSeq    uint64 // Seq of the last appended event
	checkpoint []byte
	cpSeq      uint64 // EvSeq of the stored checkpoint
}

// replicaLogChunk is the event count per replica log chunk.
const replicaLogChunk = 1024

// replicaLog is the shipped event log, stored as fixed-size chunks.
// One flat slice would re-copy — and the allocator re-zero — the
// entire history on every doubling step, a pause that grows with
// session length and briefly doubles the log's memory; appends land on
// the replication ack path, so they must stay O(1) with no spikes.
// Reads that want one contiguous slice (promotion, test oracles) are
// rare and pay the copy instead.
type replicaLog struct {
	chunks [][]obs.Event
	n      int
}

func (l *replicaLog) len() int { return l.n }

func (l *replicaLog) append(ev obs.Event) {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == replicaLogChunk {
		l.chunks = append(l.chunks, make([]obs.Event, 0, replicaLogChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], ev)
	l.n++
}

// snapshot materializes the log as one freshly allocated contiguous
// slice, in append order.
func (l *replicaLog) snapshot() []obs.Event {
	out := make([]obs.Event, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// replicaStore holds the node's replicas, keyed by session ID.
type replicaStore struct {
	mu sync.Mutex
	m  map[string]*replica
}

func (rs *replicaStore) get(id string) (*replica, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rep, ok := rs.m[id]
	return rep, ok
}

// open returns the session's replica, creating it if absent. A
// re-open (owner reconnecting, or re-shipping after a gap) keeps the
// existing log and refreshes the spec.
//
// The store lock is released before the replica lock is taken: holding
// both nests store->replica, the reverse of EnsureLocal's
// replica->store (it drops the entry while holding rep.mu), and a
// re-open racing a promotion of the same session would deadlock.
func (rs *replicaStore) open(id string, spec server.PlatformSpec) *replica {
	rs.mu.Lock()
	rep, ok := rs.m[id]
	if !ok {
		rep = &replica{}
		rs.m[id] = rep
	}
	rs.mu.Unlock()
	rep.mu.Lock()
	rep.spec = spec
	rep.mu.Unlock()
	return rep
}

func (rs *replicaStore) drop(id string) {
	rs.mu.Lock()
	delete(rs.m, id)
	rs.mu.Unlock()
}

func (rs *replicaStore) ids() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.m))
	for id := range rs.m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// appendLog applies a shipped event batch. Events at or below lastSeq
// are duplicates of state already held (a full re-ship after target
// reselection) and are skipped; past that, the batch must continue the
// log exactly — a gap means the owner and replica disagree about what
// was shipped, and accepting it would leave a hole the promotion
// replay cannot cross. The owner heals a reported gap by re-shipping
// from zero.
func (rep *replica) appendLog(events []obs.Event) error {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	for _, ev := range events {
		if ev.Seq <= rep.lastSeq {
			continue
		}
		if rep.lastSeq != 0 || rep.log.len() > 0 {
			if ev.Seq != rep.lastSeq+1 {
				return fmt.Errorf("log gap: have seq %d, got %d", rep.lastSeq, ev.Seq)
			}
		}
		rep.log.append(ev)
		rep.lastSeq = ev.Seq
	}
	return nil
}

// setCheckpoint installs a shipped checkpoint. The log must already
// cover the checkpoint's sequence number: promotion replays the log
// suffix after cp.EvSeq, so a checkpoint ahead of the log would drop
// the events in between from the reconstructed trace.
func (rep *replica) setCheckpoint(blob []byte, evSeq uint64) error {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if evSeq > rep.lastSeq {
		return fmt.Errorf("checkpoint at seq %d ahead of log tail %d", evSeq, rep.lastSeq)
	}
	rep.checkpoint = blob
	rep.cpSeq = evSeq
	return nil
}

// --- internal HTTP endpoints (owner -> replica) ---

// handleReplicaDrop is POST /v1/cluster/replica/{id}/drop: forget a
// purged session's replica. Everything else the owner sends travels in
// stream frames (handleReplicaFrame, shipper.go).
func (n *Node) handleReplicaDrop(w http.ResponseWriter, r *http.Request) {
	n.replicas.drop(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// --- introspection endpoints ---

// RouteInfo is the reply of GET /v1/cluster/route?session=ID.
type RouteInfo struct {
	Session    string   `json:"session"`
	Owner      string   `json:"owner"`
	Candidates []string `json:"candidates"`
}

func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing session query parameter")
		return
	}
	cands := n.Route(id)
	info := RouteInfo{Session: id, Candidates: cands}
	if len(cands) > 0 {
		info.Owner = cands[0]
	}
	writeClusterJSON(w, info)
}

// NodeInfo is the reply of GET /v1/cluster/info.
type NodeInfo struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
	// Member reports whether this node is part of its own view; a
	// drained-out node keeps serving as a forwarding front with
	// Member=false.
	Member     bool     `json:"member"`
	Peers      []string `json:"peers"`
	Down       []string `json:"down"`
	Replicas   []string `json:"replicas"`
	Placements []string `json:"placements,omitempty"`
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	v := n.view()
	_, member := v.peers[n.cfg.ID]
	info := NodeInfo{
		ID:         n.cfg.ID,
		Epoch:      v.epoch,
		Member:     member,
		Peers:      v.nodeIDs(),
		Replicas:   n.replicas.ids(),
		Placements: n.placementIDs(),
	}
	n.mu.Lock()
	for id := range n.down {
		info.Down = append(info.Down, id)
	}
	n.mu.Unlock()
	sort.Strings(info.Down)
	writeClusterJSON(w, info)
}

// httpError emits the unified error envelope on the cluster planes:
// the same `{"error":{"code":"...","message":"..."}}` shape the
// session and plan planes produce, so a client (or the router's
// verbatim forward) sees one error format everywhere.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	server.WriteErrorEnvelope(w, code, "", format, args...)
}

func writeClusterJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}
