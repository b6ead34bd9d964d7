package obs

// Canonical metric names of the serving layer (internal/server), kept
// here so the emitting daemon and any dashboard or test consuming a
// Registry snapshot agree on the schema. The simulator-side names
// ("sim.*", "lmc.*", "dynsched.*") are documented on MetricsSink and
// the policies that emit them.
const (
	// ServerRequests counts HTTP requests accepted by the daemon
	// (anything that reached a handler, whatever the status).
	ServerRequests = "server.requests"
	// ServerFailures counts requests that ended in a 5xx, including
	// recovered panics.
	ServerFailures = "server.failures"
	// ServerRejected counts requests shed with 429 by a full plan
	// queue or session shard queue.
	ServerRejected = "server.rejected"
	// ServerPanics counts handler panics converted to 500s.
	ServerPanics = "server.panics"
	// ServerInFlight gauges requests currently inside a handler.
	ServerInFlight = "server.inflight"
	// ServerLatency is the per-request wall-time histogram, in seconds.
	ServerLatency = "server.latency_s"

	// ServerPlans counts batch plans computed by the planning plane
	// (cache misses that ran the planner).
	ServerPlans = "server.plans"
	// ServerPlansAborted counts in-flight plans aborted by request
	// cancellation or deadline (the context reached the planner and
	// stopped it mid-computation).
	ServerPlansAborted = "server.plans_aborted"
	// ServerPlanQueueDepth gauges the planning plane's queued jobs.
	ServerPlanQueueDepth = "server.plan.queue_depth"
	// ServerPlanCacheHits / Misses count result-cache lookups; their
	// ratio is the cache hit rate.
	ServerPlanCacheHits   = "server.plan.cache.hits"
	ServerPlanCacheMisses = "server.plan.cache.misses"

	// ServerSessionsOpen gauges live (not yet drained) session shards.
	ServerSessionsOpen = "server.sessions.open"
	// ServerSessionsOpened / Drained count session lifecycle edges.
	ServerSessionsOpened  = "server.sessions.opened"
	ServerSessionsDrained = "server.sessions.drained"
	// ServerSessionTasks counts tasks accepted across all sessions.
	ServerSessionTasks = "server.sessions.tasks_accepted"
	// ServerSessionBatchSize is the histogram of group-commit batch
	// sizes: how many concurrent submits each shard-lock acquisition
	// admitted. A mass at 1 means no coalescing (light traffic); mass
	// in the higher buckets is the amortization working.
	ServerSessionBatchSize = "server.sessions.batch_size"

	// ClusterForwards counts session operations this node proxied to
	// another node because the consistent-hash ring placed the session
	// elsewhere.
	ClusterForwards = "cluster.forwards"
	// ClusterForwardErrors counts forwards that failed at the transport
	// layer (the peer was marked down and the request failed over or
	// surfaced as a 502).
	ClusterForwardErrors = "cluster.forward_errors"
	// ClusterReplicationErrors counts routed mutations whose Replicate
	// call failed: a submit's ack is withheld (502), while create and
	// drain degrade and converge from the next ship.
	ClusterReplicationErrors = "cluster.replication_errors"
	// ClusterShips counts successful replication rounds: each one left
	// the replica's log covering every event the owner had emitted.
	ClusterShips = "cluster.ships"
	// ClusterPromotions counts sessions this node rebuilt from a
	// replicated checkpoint + log and adopted as owner after the
	// previous owner died.
	ClusterPromotions = "cluster.promotions"
	// ClusterPeersDown gauges peers currently considered dead.
	ClusterPeersDown = "cluster.peers_down"
	// ClusterEpoch gauges this node's membership epoch: it bumps by one
	// on every accepted join or leave, so divergence between nodes'
	// epochs is visible from any two /metrics scrapes.
	ClusterEpoch = "cluster.epoch"
	// ClusterMigrations counts planned session migrations this node
	// completed as the outgoing owner (drain-and-handoff, not failover
	// promotions — those are ClusterPromotions).
	ClusterMigrations = "cluster.migrations"
	// ClusterMembershipSyncs counts membership views this node adopted
	// from a peer (push broadcast or epoch-triggered anti-entropy pull).
	ClusterMembershipSyncs = "cluster.membership_syncs"

	// ClusterShipFrames counts coalesced replication frames sent by the
	// per-peer shipper streams. ClusterShips counts acked per-session
	// entries, so ships/frames is the average coalescing factor.
	ClusterShipFrames = "cluster.ship.frames"
	// ClusterShipFrameSessions is the histogram of sessions coalesced
	// into each frame. Mass at 1 means no coalescing (light traffic);
	// mass in higher buckets is the stream amortization working —
	// the replication-plane analogue of ServerSessionBatchSize.
	ClusterShipFrameSessions = "cluster.ship.frame_sessions"
	// ClusterShipFrameEvents is the histogram of log events carried per
	// frame across all its sessions.
	ClusterShipFrameEvents = "cluster.ship.frame_events"
	// ClusterShipInflight gauges replication frames currently in flight
	// across all peer streams (bounded per peer by the ship window).
	ClusterShipInflight = "cluster.ship.inflight"
	// ClusterShipAckWait is the histogram of replication-ack wait time
	// in seconds: how long a mutation's response was held between its
	// local commit and the stream ack covering its event sequence. This
	// is the replication lag a client-visible submit pays.
	ClusterShipAckWait = "cluster.ship.ack_wait_s"
	// ClusterShipHeals counts stream heal rounds: the replica reported
	// a log gap (or vanished) and the owner reset the cursor to re-ship
	// the full log.
	ClusterShipHeals = "cluster.ship.heals"
)
