package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// maxReplicaBody bounds internal replication request bodies; matches
// the public API's cap.
const maxReplicaBody = 64 << 20

// Config wires a Node.
type Config struct {
	// ID is this node's name; must be a key of Peers and consist of
	// [A-Za-z0-9._-] (it is embedded in minted session IDs).
	ID string
	// Peers maps node ID -> base URL (http://host:port) for the seed
	// membership, including this node. It is only the epoch-1 view:
	// joins and leaves (POST/DELETE /v1/cluster/nodes/{id}) replace the
	// membership at runtime.
	Peers map[string]string
	// VNodes is the ring's virtual-node count per peer (0 =
	// DefaultVNodes).
	VNodes int
	// CheckpointEvery ships a fresh checkpoint to the replica once
	// this many log events accumulated since the last one (0 = 256).
	// Smaller means faster promotion replay, more snapshot traffic.
	CheckpointEvery int
	// ShipTimeout bounds each replication RPC (0 = 5s).
	ShipTimeout time.Duration
	// ShipFlushInterval makes a woken shipper linger this long before
	// building a frame, trading ack latency for larger coalesced
	// frames (0 = ship immediately; pipelining already coalesces
	// whatever commits while the previous frame is on the wire).
	ShipFlushInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	if c.ShipTimeout == 0 {
		c.ShipTimeout = 5 * time.Second
	}
	return c
}

// Node is one cluster member: it fronts a server.Server through a
// server.Router (any node serves any session), owns the sessions the
// ring places on it, replicates them to the next live node, and holds
// cold replica state for sessions owned elsewhere, promoting them when
// their owner dies. Safe for concurrent use by the HTTP stack.
type Node struct {
	cfg     Config
	srv     *server.Server
	router  *server.Router
	handler http.Handler
	client  *http.Client

	// membership is the current epoch'd view (peers + ring), swapped
	// atomically by joins/leaves; viewMu serializes the writers.
	membership atomic.Pointer[membership]
	viewMu     sync.Mutex

	// placeMu guards placements, the per-session routing overrides
	// installed by migrations (admin.go).
	placeMu    sync.Mutex
	placements map[string]Placement

	// migrating serializes migrations per session; adminBusy serializes
	// whole-membership operations (join/leave) on this coordinator.
	migrating sessionGuard
	adminBusy atomic.Bool
	// syncing single-flights the epoch-triggered anti-entropy pull.
	syncing atomic.Bool

	// mu guards down, the liveness view. Peers are marked down by
	// failed forwards/ships (or the background prober) and up again by
	// any successful exchange.
	mu   sync.Mutex
	down map[string]bool

	replicas replicaStore

	// shipsMu guards the whole streaming plane: ships (per-owned-
	// session replication cursors), the per-peer shippers with their
	// queues and in-flight counts, and the closed flag. Never held
	// across I/O; channel sends to released waiters happen after unlock
	// (collected as shipRelease values).
	shipsMu     sync.Mutex
	ships       map[string]*shipCursor
	shippers    map[string]*shipper
	shipsClosed bool
	shipWG      sync.WaitGroup

	seq atomic.Uint64

	shipsTotal      *obs.Counter
	promotions      *obs.Counter
	peersDown       *obs.Gauge
	epochGauge      *obs.Gauge
	migrations      *obs.Counter
	membershipSyncs *obs.Counter
	shipFrames      *obs.Counter
	shipHeals       *obs.Counter
	shipInflight    *obs.Gauge
	frameSessions   *obs.Histogram
	frameEvents     *obs.Histogram
	shipAckWait     *obs.Histogram
}

// NewNode builds a node over its server. The server must be fronted
// exclusively through Node.Handler — bypassing the router would serve
// sessions without placement or replication.
func NewNode(cfg Config, srv *server.Server) (*Node, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	ids := make([]string, 0, len(cfg.Peers))
	for id := range cfg.Peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if _, ok := cfg.Peers[cfg.ID]; !ok {
		return nil, fmt.Errorf("cluster: node ID %q is not in the peer list %v", cfg.ID, ids)
	}
	seed, err := newMembership(Membership{Epoch: 1, Peers: cfg.Peers}, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	reg := srv.Registry()
	transport := newClusterTransport()
	n := &Node{
		cfg: cfg,
		srv: srv,
		// No client-level timeout: every call site bounds itself with a
		// context deadline (ShipTimeout for replication, adminTimeout
		// for fan-out admin RPCs). The transport is the node-wide tuned
		// keep-alive pool, shared with the router's forwards below.
		client:          &http.Client{Transport: transport},
		placements:      map[string]Placement{},
		migrating:       sessionGuard{m: map[string]bool{}},
		down:            map[string]bool{},
		replicas:        replicaStore{m: map[string]*replica{}},
		ships:           map[string]*shipCursor{},
		shippers:        map[string]*shipper{},
		shipsTotal:      reg.Counter(obs.ClusterShips),
		promotions:      reg.Counter(obs.ClusterPromotions),
		peersDown:       reg.Gauge(obs.ClusterPeersDown),
		epochGauge:      reg.Gauge(obs.ClusterEpoch),
		migrations:      reg.Counter(obs.ClusterMigrations),
		membershipSyncs: reg.Counter(obs.ClusterMembershipSyncs),
		shipFrames:      reg.Counter(obs.ClusterShipFrames),
		shipHeals:       reg.Counter(obs.ClusterShipHeals),
		shipInflight:    reg.Gauge(obs.ClusterShipInflight),
		frameSessions:   reg.Histogram(obs.ClusterShipFrameSessions, obs.ExpBuckets(1, 2, 10)),
		frameEvents:     reg.Histogram(obs.ClusterShipFrameEvents, obs.ExpBuckets(1, 4, 10)),
		shipAckWait:     reg.Histogram(obs.ClusterShipAckWait, obs.ExpBuckets(1e-4, 4, 10)),
	}
	n.membership.Store(seed)
	n.epochGauge.Set(1)
	n.router = server.NewRouter(srv, n)
	n.router.SetTransport(transport)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/replica/frame", n.handleReplicaFrame)
	mux.HandleFunc("POST /v1/cluster/replica/{id}/drop", n.handleReplicaDrop)
	mux.HandleFunc("GET /v1/cluster/membership", n.handleMembershipGet)
	mux.HandleFunc("POST /v1/cluster/membership", n.handleMembershipPost)
	mux.HandleFunc("POST /v1/cluster/nodes/{id}", n.handleNodeJoin)
	mux.HandleFunc("DELETE /v1/cluster/nodes/{id}", n.handleNodeLeave)
	mux.HandleFunc("POST /v1/cluster/sessions/{id}/migrate", n.handleMigrate)
	mux.HandleFunc("POST /v1/cluster/handoff/{id}", n.handleHandoff)
	mux.HandleFunc("POST /v1/cluster/rebalance", n.handleRebalance)
	mux.HandleFunc("POST /v1/cluster/evacuate", n.handleEvacuate)
	mux.HandleFunc("POST /v1/cluster/placement/{id}", n.handlePlacementPut)
	mux.HandleFunc("DELETE /v1/cluster/placement/{id}", n.handlePlacementDel)
	mux.HandleFunc("GET /v1/cluster/route", n.handleRoute)
	mux.HandleFunc("GET /v1/cluster/info", n.handleInfo)
	mux.Handle("/", n.router)
	n.handler = n.epochAware(mux)
	return n, nil
}

// Handler returns the node's HTTP surface: the public scheduler API
// routed by session placement, plus the internal /v1/cluster/*
// replication endpoints.
func (n *Node) Handler() http.Handler { return n.handler }

// Self implements server.Cluster.
func (n *Node) Self() string { return n.cfg.ID }

// Addr implements server.Cluster, resolving against the current view.
func (n *Node) Addr(node string) string { return n.view().peers[node] }

// Route implements server.Cluster: the session's full live failover
// chain, owner first. A live placement owner (a migrated session's
// home) outranks the ring; the ring chain follows as failover, because
// that is where the placement owner ships its replicas.
func (n *Node) Route(sessionID string) []string {
	v := n.view()
	cands := v.ring.Candidates(sessionID, len(v.peers), n.alive)
	p, ok := n.placementOf(sessionID)
	if !ok || p.Owner == "" {
		return cands
	}
	if _, member := v.peers[p.Owner]; !member || !n.alive(p.Owner) {
		// The placed owner is gone; fall back to the ring chain, where
		// its replica lives and promotes lazily.
		return cands
	}
	out := make([]string, 0, len(cands)+1)
	out = append(out, p.Owner)
	for _, c := range cands {
		if c != p.Owner {
			out = append(out, c)
		}
	}
	return out
}

// NewSessionID implements server.Cluster. IDs carry the minting node
// and a local counter, so concurrent fronts never collide.
func (n *Node) NewSessionID() string {
	return fmt.Sprintf("s-%s-%06d", n.cfg.ID, n.seq.Add(1))
}

// Observe implements server.Cluster: transport failures mark a peer
// down, successful exchanges mark it up.
func (n *Node) Observe(node string, err error) {
	if node == n.cfg.ID {
		return
	}
	if _, ok := n.view().peers[node]; !ok {
		return
	}
	n.mu.Lock()
	if err != nil {
		n.down[node] = true
	} else {
		delete(n.down, node)
	}
	n.peersDown.Set(float64(len(n.down)))
	n.mu.Unlock()
}

func (n *Node) alive(node string) bool {
	if node == n.cfg.ID {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.down[node]
}

// StartProber launches a background goroutine probing every peer's
// /healthz each interval, so dead peers are discovered (and revived
// peers welcomed back) without waiting for a request to fail against
// them. The returned stop function blocks until the prober exits.
func (n *Node) StartProber(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n.probeOnce(interval)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (n *Node) probeOnce(timeout time.Duration) {
	// The prober follows the current view each tick, so members that
	// joined after boot are probed and departed ones are not.
	v := n.view()
	for _, id := range v.nodeIDs() {
		if id == n.cfg.ID {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, v.peers[id]+"/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := n.client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		n.Observe(id, err)
	}
}

// EnsureLocal implements server.Cluster: the promotion path. If this
// node holds replica state for id but no live shard, the session is
// rebuilt (checkpoint restore + log suffix replay) and adopted; the
// next Replicate call re-ships the full log to a new replica.
//
// The migration fence lives here too: while a placement names another
// live node as the session's owner, this node must neither serve nor
// promote it — a request that raced past the ownership flip gets a
// retryable ErrSessionMoved instead of resurrecting pre-migration
// state (split brain). Only when the placed owner is dead does the
// normal lazy promotion take over, returning the session to the ring.
func (n *Node) EnsureLocal(ctx context.Context, id string) error {
	if p, ok := n.placementOf(id); ok && p.Owner != n.cfg.ID && n.alive(p.Owner) {
		if _, member := n.view().peers[p.Owner]; member {
			return fmt.Errorf("cluster: %w: session %s is on %s", server.ErrSessionMoved, id, p.Owner)
		}
	}
	// The moved marker is the second fence, and the only one that holds
	// on the node that migrated the session away itself. During a join,
	// the old owner hands sessions to the joiner BEFORE the epoch flips,
	// so for a moment its view does not contain the new owner at all:
	// the placement fence above cannot see it (not a member), old-ring
	// routing still points here, and the new owner's first replication
	// ship may already have deposited a replica of the session on this
	// node. Promoting that replica would fork acknowledged state. Refuse
	// unless the moved-target is a member this node has observed down —
	// the one case where promotion is genuine failover.
	if target, ok := n.srv.SessionMovedTo(id); ok && target != n.cfg.ID {
		if _, member := n.view().peers[target]; !member || n.alive(target) {
			return fmt.Errorf("cluster: %w: session %s is on %s", server.ErrSessionMoved, id, target)
		}
	}
	if n.srv.HasSession(id) {
		return nil
	}
	rep, ok := n.replicas.get(id)
	if !ok {
		return nil // no state here: the operation sees the local 404
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if n.srv.HasSession(id) {
		return nil // lost the promotion race; the winner's shard serves
	}
	if _, err := n.srv.AdoptSession(ctx, id, rep.spec, rep.checkpoint, rep.log.snapshot()); err != nil {
		return fmt.Errorf("cluster: promote session %s: %w", id, err)
	}
	n.promotions.Inc()
	// Promotion returns the session to ring placement: a stale
	// placement record pointing at the dead owner must not outrank us.
	n.dropPlacement(id)
	// The shard's recorder now carries the full trace; the replica
	// copy is dead weight.
	n.replicas.drop(id)
	return nil
}

// replicaTarget picks the session's replica: the first live candidate
// on the ring that is not this node. "" means the cluster has no other
// live node and the session runs unreplicated until one returns.
func (n *Node) replicaTarget(id string) string {
	for _, cand := range n.Route(id) {
		if cand != n.cfg.ID {
			return cand
		}
	}
	return ""
}

// Replicate implements server.Cluster: bring the session's replica up
// to date with the local recorder before the mutation's response is
// released — for submits the router fails the request if this fails,
// which is what makes "acked implies replicated" (and therefore
// kill-tolerance) hold. The call blocks on the per-peer stream's ack
// covering the session's current log tail (shipper.go); rehomeReplicas
// and the handoff path rely on that completion guarantee.
func (n *Node) Replicate(ctx context.Context, id string, m server.Mutation) error {
	if len(n.view().peers) == 1 {
		return nil // solo "cluster": nothing to replicate to
	}
	return n.replicateStream(ctx, id, m)
}

// statusError is a non-2xx reply from a replication endpoint — the
// peer is alive but refused, so it must not be marked down.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, e.body)
}

func isStatusError(err error) bool {
	var se *statusError
	return errors.As(err, &se)
}

// replyError maps a reply to nil on 2xx and to a *statusError carrying
// the first KiB of the trimmed body otherwise.
func replyError(status int, body []byte) error {
	if status >= 200 && status < 300 {
		return nil
	}
	if len(body) > 1024 {
		body = body[:1024]
	}
	return &statusError{code: status, body: string(bytes.TrimSpace(body))}
}

// post sends one replication RPC to a peer by node ID, resolving its
// address against the current view. It returns nil on 2xx, a
// *statusError on any other reply, and the raw transport error when
// the peer was unreachable. Any HTTP-level response (even an error
// status) marks the peer up: it is alive, just refusing.
func (n *Node) post(ctx context.Context, node, path, contentType string, body []byte) error {
	addr := n.Addr(node)
	if addr == "" {
		return &statusError{code: http.StatusGone, body: fmt.Sprintf("node %s is not in the current view", node)}
	}
	err := n.doAddr(ctx, http.MethodPost, addr, path, contentType, body, n.cfg.ShipTimeout)
	if err == nil || isStatusError(err) {
		n.Observe(node, nil)
	}
	return err
}

// doAddr sends one RPC to an explicit base URL (which need not be in
// the view yet — joiners aren't) and discards the reply body. Non-2xx
// replies become *statusError; transport failures pass through raw.
func (n *Node) doAddr(ctx context.Context, method, addr, path, contentType string, body []byte, timeout time.Duration) error {
	status, msg, err := n.roundTrip(ctx, method, addr, path, contentType, body, timeout)
	if err != nil {
		return err
	}
	return replyError(status, msg)
}

// doAddrJSON is doAddr plus decoding a 2xx reply body into out.
func (n *Node) doAddrJSON(ctx context.Context, method, addr, path string, body []byte, timeout time.Duration, out any) error {
	status, msg, err := n.roundTrip(ctx, method, addr, path, "application/json", body, timeout)
	if err != nil {
		return err
	}
	if err := replyError(status, msg); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(msg, out); err != nil {
		return fmt.Errorf("decode reply from %s%s: %w", addr, path, err)
	}
	return nil
}

// roundTrip is the transport primitive under post/doAddr/doAddrJSON:
// one bounded request, whole reply body read. The context deadline is
// the only timeout — the shared client carries none, so admin RPCs
// (which fan out into per-session migrations) can run longer than one
// ship budget.
func (n *Node) roundTrip(ctx context.Context, method, addr, path, contentType string, body []byte, timeout time.Duration) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxReplicaBody))
	return resp.StatusCode, msg, nil
}
