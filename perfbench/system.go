package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"dvfsched/internal/cluster"
	"dvfsched/internal/server"
)

// probeInterval is cmd/dvfschedd's default -probe-interval.
const probeInterval = 2 * time.Second

// node is one serving process's worth of state, run in this process
// on a real loopback listener.
type node struct {
	id         string
	url        string
	srv        *server.Server
	cl         *cluster.Node // nil on a solo server
	hs         *http.Server
	stopProber func()
	served     chan struct{} // closed when Serve has returned
}

// system is the program under test: one solo server.Server, or a
// cluster of cluster.Node members wired like cmd/dvfschedd.
type system struct {
	nodes []*node
}

// startSystem boots n nodes (n == 1 is a solo server, n > 1 a
// cluster) with default server and cluster configs and waits until
// every node answers /healthz. With spans non-nil every node's handler
// is wrapped to record a span per request.
func startSystem(n int, spans *spanLog) (*system, error) {
	lns := make([]net.Listener, n)
	peers := make(map[string]string, n)
	sys := &system{}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		nd := &node{id: fmt.Sprintf("n%d", i+1), url: "http://" + ln.Addr().String(), served: make(chan struct{})}
		peers[nd.id] = nd.url
		sys.nodes = append(sys.nodes, nd)
	}
	for i, nd := range sys.nodes {
		nd.srv = server.New(server.Config{})
		var h http.Handler = nd.srv
		if n > 1 {
			cl, err := cluster.NewNode(cluster.Config{ID: nd.id, Peers: peers}, nd.srv)
			if err != nil {
				nd.srv.Close()
				for _, l := range lns[i:] {
					l.Close()
				}
				sys.close()
				return nil, err
			}
			nd.cl = cl
			nd.stopProber = cl.StartProber(probeInterval)
			h = cl.Handler()
		}
		if spans != nil {
			h = tracedHandler{log: spans, node: i, next: h}
		}
		nd.hs = &http.Server{Handler: h}
		//dvfslint:allow goroleak Serve returns when system.close closes the http.Server, then closes served
		go func(nd *node, ln net.Listener) {
			defer close(nd.served)
			if err := nd.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "serve %s: %v\n", nd.id, err)
			}
		}(nd, lns[i])
	}
	for _, nd := range sys.nodes {
		if err := waitHealthy(nd.url); err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops every node the way cmd/dvfschedd shuts down: HTTP first,
// then the prober and replication streams, then the server.
func (s *system) close() {
	for _, nd := range s.nodes {
		if nd.hs != nil {
			nd.hs.Close()
			<-nd.served
		}
	}
	for _, nd := range s.nodes {
		if nd.stopProber != nil {
			nd.stopProber()
		}
		if nd.cl != nil {
			nd.cl.Close()
		}
		if nd.srv != nil {
			nd.srv.Close()
		}
	}
}

// owner is the index of the node that owns session id.
func (s *system) owner(id string) int {
	if len(s.nodes) == 1 {
		return 0
	}
	route := s.nodes[0].cl.Route(id)
	for i, nd := range s.nodes {
		if len(route) > 0 && route[0] == nd.id {
			return i
		}
	}
	return -1
}

// spanKind classifies a request by the layer operation it asks for.
type spanKind uint8

const (
	kindOther spanKind = iota
	kindSubmit
	kindPlan
	kindDrain
	kindEvents
	kindFrame
)

// classify maps a request to its kind and, for session routes, the
// session ID.
func classify(method, path string) (spanKind, string) {
	switch path {
	case "/v1/plan":
		return kindPlan, ""
	case "/v1/cluster/replica/frame":
		return kindFrame, ""
	}
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return kindOther, ""
	}
	id, tail, _ := strings.Cut(rest, "/")
	switch {
	case method == http.MethodPost && tail == "tasks":
		return kindSubmit, id
	case method == http.MethodDelete && tail == "":
		return kindDrain, id
	case method == http.MethodGet && tail == "events":
		return kindEvents, id
	}
	return kindOther, id
}

// span is one request as a node's HTTP handler saw it: from the call
// into the node's http.Handler to its return.
type span struct {
	interval
	Node    int
	Kind    spanKind
	Session string
	Remote  string // the client connection's address
}

// spanLog keeps every span of a traced run in memory until the run
// ends. Times are relative to base, the run's shared time origin.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

// tracedHandler records a span around a node's handler.
type tracedHandler struct {
	log  *spanLog
	node int
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, id := classify(r.Method, r.URL.Path)
	start := time.Since(h.log.base)
	h.next.ServeHTTP(w, r)
	sp := span{interval: interval{start, time.Since(h.log.base)}, Node: h.node, Kind: kind,
		Session: id, Remote: r.RemoteAddr}
	h.log.mu.Lock()
	h.log.spans = append(h.log.spans, sp)
	h.log.mu.Unlock()
}
