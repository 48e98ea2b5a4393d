package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avtmor/internal/cluster"
	"avtmor/internal/promtext"
	"avtmor/internal/replica"
)

// HeaderForwarded marks a request that already crossed one peer hop;
// every peer request carries it (peerDo). Its value is the sending
// node's address. A server that receives it always answers locally —
// never re-forwards — so divergent ring views (a fleet
// mid-membership-transition) degrade to one extra hop instead of a
// forwarding loop.
const HeaderForwarded = "X-Avtmor-Forwarded"

// HeaderEpoch carries a node's membership epoch: stamped on every
// response and on every peer request. A mismatch is how divergent
// views detect each other mid-transition — the behind node refreshes
// its membership from the ahead one instead of routing blind until the
// next anti-entropy sweep.
const HeaderEpoch = "X-Avtmor-Epoch"

// peerVars is the per-peer counter pair: the peer's children of the
// avtmor_cluster_peer_forwards_total and
// avtmor_cluster_peer_forward_errors_total families.
type peerVars struct {
	forwards, forwardErrors *promtext.Counter
}

// clusterState is the routing tier of a Server: the epoch-versioned
// membership (ring + replication factor), the HTTP client used for
// peer hops, the anti-entropy sweeper, and the counters that make
// routing observable. A nil clusterState (no -peers) keeps the server
// a plain single process.
type clusterState struct {
	state *replica.State
	self  string
	hc    *http.Client

	sweeper    *replica.Sweeper // nil without a store or with sweeps disabled
	refreshing atomic.Bool      // one membership refresh in flight at a time

	prom *promtext.Registry // set by initProm, which registers every counter below

	mu    sync.Mutex
	peers map[string]*peerVars // guarded by mu; normalized peer addr → counters (self excluded)

	// ownerHits counts requests this node answered because the ring
	// placed the key here; forwardedServes the requests answered
	// locally because a peer forwarded them (loop guard); localHits
	// by-address requests served locally although another node owns
	// the key (the artifact was already on this node); fallbackLocal
	// requests computed/served locally because every owner was
	// unreachable or draining.
	ownerHits, forwardedServes, localHits, fallbackLocal *promtext.Counter
	// replicaWrites counts replica copies accepted over
	// PUT /v1/cluster/roms (write-through pushes, sweeper pushes);
	// replicaPushes/replicaPushErrors the outbound side; readRepairs
	// GETs that pulled a missing local copy from a co-replica;
	// epochMismatches requests or relays that met a different epoch;
	// orphansMarked fallback artifacts tagged for anti-entropy handoff.
	replicaWrites, replicaPushes, replicaPushErrors *promtext.Counter
	readRepairs, epochMismatches, orphansMarked     *promtext.Counter
}

// newClusterState validates and builds the routing tier from Config.
// An empty peer list returns (nil, nil): clustering disabled.
func newClusterState(cfg Config) (*clusterState, error) {
	if len(cfg.Peers) == 0 {
		if cfg.Node != "" {
			return nil, fmt.Errorf("serve: Node %q set without Peers", cfg.Node)
		}
		if cfg.Replicas > 1 {
			return nil, fmt.Errorf("serve: Replicas %d set without Peers", cfg.Replicas)
		}
		return nil, nil
	}
	self := cluster.Normalize(cfg.Node)
	if self == "" {
		return nil, fmt.Errorf("serve: Peers configured but Node is empty; set Node to this server's address as it appears in Peers")
	}
	if cfg.Replicas < 0 {
		return nil, fmt.Errorf("serve: negative Replicas %d", cfg.Replicas)
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = 1
	}
	state := replica.NewState(cfg.Peers, replicas)
	if !state.Contains(self) {
		return nil, fmt.Errorf("serve: Node %q is not in Peers %v", self, state.Ring().Nodes())
	}
	headerTimeout := cfg.PeerHeaderTimeout
	if headerTimeout <= 0 {
		headerTimeout = 30 * time.Second
	}
	cs := &clusterState{
		state: state,
		self:  self,
		peers: map[string]*peerVars{},
		hc: &http.Client{
			// No overall client timeout: the forwarded request carries
			// the caller's context (and ?timeout= deadline). The dial
			// timeout is what turns a dead owner into a fast local
			// fallback instead of a hung entry node, and the response
			// header timeout does the same for an owner that accepts
			// the connection but then wedges — without it a stalled
			// peer pins the relay goroutine (and the caller) until the
			// request deadline, if there is one at all.
			Transport: &http.Transport{
				DialContext: (&net.Dialer{
					Timeout:   2 * time.Second,
					KeepAlive: 30 * time.Second,
				}).DialContext,
				MaxIdleConnsPerHost:   16,
				IdleConnTimeout:       90 * time.Second,
				ResponseHeaderTimeout: headerTimeout,
			},
		},
	}
	return cs, nil
}

// peerVar returns the counter pair for a peer, registering its labeled
// children the first time the peer is addressed (statically configured
// peers at initProm, dynamically joined ones on first contact).
// Registration runs under cs.mu, so the lock order is cs.mu → registry;
// no scrape-time value function takes cs.mu.
func (cs *clusterState) peerVar(addr string) *peerVars {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	pv, ok := cs.peers[addr]
	if !ok {
		lbl := promtext.Label{Name: "peer", Value: addr}
		pv = &peerVars{
			forwards:      cs.prom.Counter("avtmor_cluster_peer_forwards_total", "Requests relayed to this peer.", lbl),
			forwardErrors: cs.prom.Counter("avtmor_cluster_peer_forward_errors_total", "Relays to this peer that failed or found it draining.", lbl),
		}
		cs.peers[addr] = pv
	}
	return pv
}

// ownersFor returns the digest's replica set (primary first) under the
// current membership.
func (cs *clusterState) ownersFor(digest string) []string {
	ms, ring := cs.state.View()
	return ring.Owners(digest, min(ms.Replicas, ring.Len()))
}

// route classifies a request against the ring. It returns the replica
// set to forward to (primary first) when no replica is this node, or
// nil when the request must be served locally (not clustered,
// loop-guarded, or this node is a replica).
func (s *Server) route(r *http.Request, digest string) []string {
	cs := s.cluster
	if cs == nil {
		return nil
	}
	if r.Header.Get(HeaderForwarded) != "" {
		cs.forwardedServes.Add(1)
		return nil
	}
	owners := cs.ownersFor(digest)
	if len(owners) == 0 || slices.Contains(owners, cs.self) {
		cs.ownerHits.Add(1)
		return nil
	}
	return owners
}

// hasLocal reports whether the artifact with the given content
// address is already present on this node (store index/stat probe, or
// the in-memory by-address map when persistence is disabled) — in
// which case a by-address request is served locally even when another
// node owns the key: content addressing makes every copy identical.
func (s *Server) hasLocal(digest string) bool {
	if s.st != nil {
		return s.st.Has(digest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem[digest] != nil
}

// forward is the owner walk of the by-key handlers (reduce, GET,
// simulate). When route assigns the request to other nodes and have()
// reports the artifact absent here, it relays the request with body to
// the replicas in ring order and returns true once one of them
// answered. Otherwise this node serves the request and forward returns
// false: it is a replica, the request already crossed a hop, the
// artifact is already here (counted in localHits: content addressing
// makes every copy identical), or no owner was reachable (counted in
// fallbackLocal).
func (s *Server) forward(w http.ResponseWriter, r *http.Request, digest string, body []byte, have func() bool) bool {
	owners := s.route(r, digest)
	if owners == nil {
		return false
	}
	if have() {
		s.cluster.localHits.Add(1)
		return false
	}
	for _, owner := range owners {
		if s.relay(w, r, owner, body) {
			return true
		}
	}
	s.cluster.fallbackLocal.Add(1)
	return false
}

// relay forwards the request to owner and streams the owner's
// response back verbatim. It returns false — having written nothing —
// when the owner is unreachable or draining (connect error, 503), so
// the caller can try the next replica or fall back to serving locally;
// any other owner response, including client errors and backpressure,
// is the answer and is relayed as-is.
func (s *Server) relay(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	pv := s.cluster.peerVar(owner)
	pv.forwards.Add(1)
	hdr := http.Header{}
	for _, h := range []string{"Content-Type", "Accept", "If-None-Match", "If-Modified-Since", HeaderAPIKey} {
		if v := r.Header.Get(h); v != "" {
			hdr.Set(h, v)
		}
	}
	start := time.Now()
	resp, err := s.peerDo(r.Context(), r.Method, owner, r.URL.RequestURI(), body, hdr, 0)
	if err != nil {
		pv.forwardErrors.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The owner is draining (or shedding its shutdown): treat it as
		// down and let this node degrade to the next replica or local
		// service rather than bubbling a 5xx to the client.
		io.Copy(io.Discard, resp.Body)
		pv.forwardErrors.Add(1)
		return false
	}
	for _, h := range []string{
		"Content-Type", "Content-Length", "ETag", "Last-Modified",
		"X-Avtmor-Rom-Key", "X-Avtmor-Rom-Order", "Retry-After",
		HeaderCost,
	} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	if s.forwardLatency != nil {
		s.forwardLatency.Observe(time.Since(start).Seconds())
	}
	return true
}

// peerDo sends one node-to-node request and is the only place serve
// calls a peer. It stamps X-Avtmor-Forwarded with this node (the peer
// answers locally, never re-forwards, and reads the epoch next to it),
// X-Avtmor-Epoch and the request ID ctx carries, and passes the
// answer's epoch through noteEpoch. With want ≠ 0, an answer of any
// other status is drained and returned as an error. The caller closes
// the body of every answer it gets.
func (s *Server) peerDo(ctx context.Context, method, peer, path string, body []byte, hdr http.Header, want int) (*http.Response, error) {
	cs := s.cluster
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, rd)
	if err != nil {
		return nil, err
	}
	if hdr != nil {
		req.Header = hdr
	}
	req.Header.Set(HeaderForwarded, cs.self)
	req.Header.Set(HeaderEpoch, strconv.FormatUint(cs.state.Epoch(), 10))
	if rid := requestID(ctx); rid != "" {
		req.Header.Set(HeaderRequestID, rid)
	}
	resp, err := cs.hc.Do(req)
	if err != nil {
		return nil, err
	}
	s.noteEpoch(peer, resp.Header.Get(HeaderEpoch))
	if want != 0 && resp.StatusCode != want {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("serve: peer %s answered %d to %s %s", peer, resp.StatusCode, method, path)
	}
	return resp, nil
}

// noteEpoch compares a peer's advertised epoch against the local one
// and, when the peer is ahead, starts an asynchronous membership
// refresh from it — the epoch-mismatch half of dynamic membership:
// divergence is detected on the first request that crosses it, not on
// the next sweep.
func (s *Server) noteEpoch(peer, header string) {
	if header == "" {
		return
	}
	cs := s.cluster
	peerEpoch, err := strconv.ParseUint(header, 10, 64)
	if err != nil {
		return
	}
	epoch := cs.state.Epoch()
	if peerEpoch == epoch {
		return
	}
	cs.epochMismatches.Add(1)
	if peerEpoch > epoch {
		s.refreshMembership(peer)
	}
}

// refreshMembership fetches and applies peer's membership in the
// background, coalescing concurrent triggers into one in-flight
// refresh.
func (s *Server) refreshMembership(peer string) {
	cs := s.cluster
	if !cs.refreshing.CompareAndSwap(false, true) {
		return
	}
	s.repWG.Add(1)
	go func() {
		defer s.repWG.Done()
		defer cs.refreshing.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), peerOpTimeout)
		defer cancel()
		if m, err := (peerOps{s}).Membership(ctx, peer); err == nil {
			cs.state.Apply(m)
		}
	}()
}

// withEpoch stamps every response with this node's membership epoch
// and inspects the epoch a forwarding peer attached to its request; a
// peer that is ahead triggers a membership refresh. The forwarded
// request itself is still served (one-hop guard): mid-transition the
// two views disagree about placement for at most that hop.
func (s *Server) withEpoch(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs := s.cluster
		w.Header().Set(HeaderEpoch, strconv.FormatUint(cs.state.Epoch(), 10))
		if from := cluster.Normalize(r.Header.Get(HeaderForwarded)); from != "" {
			s.noteEpoch(from, r.Header.Get(HeaderEpoch))
		}
		next.ServeHTTP(w, r)
	})
}

// Drain flips /healthz to 503 "draining" so load balancers and ring
// peers stop routing new work here, while everything already accepted
// (and forwarded peer traffic on open connections) keeps being served.
// Drain is idempotent and implied by Close; cmd/avtmord calls it on
// SIGTERM before the listener closes so the fleet observes the
// departure ahead of connection errors.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain (or Close) has been called.
func (s *Server) Draining() bool { return s.draining.Load() }
