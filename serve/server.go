// Package serve exposes the avtmor reduction engine as an HTTP
// service: POST a netlist (or a serialized System) and get back a ROM
// artifact; simulate stored ROMs over the wire; survive restarts via a
// content-addressed on-disk store. It is the serving tier of the
// paper's amortization argument — reduce once, evaluate many — lifted
// to the process boundary.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /v1/reduce                  netlist or serialized-System body → ROM binary
//	POST /v1/reduce/batch            many bodies in one batch frame → multi-ROM frame
//	GET  /v1/roms/{key}              stored ROM binary by content address (ETag/304)
//	POST /v1/roms/{key}/simulate     workload JSON → transient result JSON/CSV
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text exposition (docs/METRICS.md)
//
// Identical concurrent reduce requests coalesce onto one reduction
// (Reducer singleflight), and completed artifacts are written through
// to the store, where a restarted daemon finds them again.
//
// Load is managed in two layers, outermost first: per-API-key
// token-bucket quotas (Config.Quotas, X-Avtmor-Api-Key), then a
// cost-aware admission budget that prices each request from its parsed
// input before it computes (Config.CostBudget, estimate echoed in
// X-Avtmor-Cost). A request that does not fit waits up to 2 s, or
// until its own deadline if that comes first, and is then shed (429,
// or 504 for the deadline); an admitted request computes on its own
// request goroutine. Cache and store hits cost no compute and skip
// admission. Every request carries a trace ID (X-Avtmor-Request-Id,
// minted at the entry node) that every peer request it causes carries
// (forwards, batch fan-out, replica pushes, read-repair pulls,
// membership broadcasts), and lands in the optional JSON access log
// (Config.AccessLog). The operator-facing story is
// docs/OPERATIONS.md.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"avtmor"
	"avtmor/internal/promtext"
	"avtmor/internal/quota"
	"avtmor/internal/store"
)

// Config parameterizes a Server.
type Config struct {
	// StoreDir is the on-disk ROM store directory. "" disables
	// persistence: artifacts live in memory only and die with the
	// process.
	StoreDir string
	// CacheLimit bounds the in-memory ROM cache (LRU eviction; evicted
	// entries reload from the store). With persistence disabled it
	// also bounds the by-address artifact map (oldest dropped, so old
	// keys stop resolving — configure a StoreDir to keep them).
	// 0 = unbounded.
	CacheLimit int
	// MaxBodyBytes caps request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// Node and Peers enable the cluster tier: Peers is the static
	// address list of every node in the fleet (this one included) and
	// Node is this server's own entry in it. Keys are placed on a
	// consistent-hash ring over Peers; requests for keys owned by
	// another node are forwarded there (one hop at most, guarded by
	// X-Avtmor-Forwarded), and an unreachable or draining owner
	// degrades to local service. Empty Peers keeps the server a plain
	// single process. See DESIGN.md §7.
	Node  string
	Peers []string
	// PeerHeaderTimeout bounds how long a forwarded request waits for
	// the owner's response headers before the relay gives up and the
	// entry node falls back to local service. Default 30s.
	PeerHeaderTimeout time.Duration
	// Replicas is the replication factor R: every artifact is placed
	// on the R distinct clockwise ring successors of its content
	// address, written through to all of them, and servable from any.
	// 0 defaults to 1 (primary only, the pre-replication behavior);
	// values above the fleet size are clamped. See DESIGN.md §11.
	Replicas int
	// AntiEntropyInterval is the background sweep period that repairs
	// missing replica copies and hands off orphaned fallback
	// artifacts. 0 selects the default (5s); negative disables
	// sweeping. Sweeping requires a StoreDir.
	AntiEntropyInterval time.Duration
	// CostBudget bounds the total estimated cost of concurrently
	// admitted work, in admission units (see docs/OPERATIONS.md for the
	// cost model). Requests are priced before they compute and admitted
	// against this budget instead of a job count, so expensive reduces
	// queue behind their own kind while cheap ones keep flowing.
	// Default 1024.
	CostBudget int64
	// Quotas maps API keys (the X-Avtmor-Api-Key header) to token
	// buckets enforced before admission. The "" key is the default
	// bucket shared by unkeyed requests and unlisted keys; with no ""
	// entry, unlisted keys are unlimited. Empty map disables quotas.
	Quotas map[string]QuotaSpec
	// AccessLog, when non-nil, receives one JSON line per completed
	// request (request ID, status, duration, cost). Writes are
	// serialized by the server.
	AccessLog io.Writer
}

// Server is the HTTP reduction service. Create with New, mount
// Handler, and Close on shutdown.
type Server struct {
	cfg     Config
	reducer *avtmor.Reducer
	st      *store.Store // nil when persistence is disabled

	mu       sync.Mutex
	mem      map[string]*avtmor.ROM // guarded by mu; digest → artifact, when st == nil
	memOrder []string               // guarded by mu; insertion order, for CacheLimit trimming

	repWG    sync.WaitGroup // background replication/membership goroutines
	draining atomic.Bool

	cluster *clusterState // nil when Peers is empty

	adm    *admission     // concurrent cost budget: the one load gate
	quotas *quota.Limiter // nil when no quotas configured
	logMu  sync.Mutex     // serializes AccessLog lines

	// The registry owns every count; these are its cells.
	prom                             *promtext.Registry
	reduceReqs, simReqs, romGets     *promtext.Counter
	batchReqs, batchItems            *promtext.Counter
	rejected, clientErrs, srvErrs    *promtext.Counter
	quotaRejected, admissionRejected *promtext.Counter

	queueWait      *promtext.Histogram
	reduceLatency  *promtext.Histogram
	simLatency     *promtext.Histogram
	httpLatency    *promtext.Histogram
	batchWidth     *promtext.Histogram
	forwardLatency *promtext.Histogram // nil when not clustered
	pushLatency    *promtext.Histogram // nil when not clustered
}

// New opens the store (when configured), builds the Reducer tier and
// the cluster tier, and starts the anti-entropy sweeper.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	var ropts []avtmor.ReducerOption
	if cfg.CacheLimit > 0 {
		ropts = append(ropts, avtmor.WithCacheLimit(cfg.CacheLimit))
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir); err != nil {
			return nil, fmt.Errorf("serve: opening ROM store: %w", err)
		}
		ropts = append(ropts, avtmor.WithROMStore(st))
	}
	cs, err := newClusterState(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CostBudget <= 0 {
		cfg.CostBudget = 1024
	}
	s := &Server{
		cfg:     cfg,
		reducer: avtmor.NewReducer(ropts...),
		st:      st,
		mem:     map[string]*avtmor.ROM{},
		cluster: cs,
		adm:     newAdmission(cfg.CostBudget),
	}
	if len(cfg.Quotas) > 0 {
		s.quotas = quota.New(cfg.Quotas)
	}
	s.initProm()
	s.startSweeper()
	return s, nil
}

// Handler returns the route table. It can be mounted under a prefix
// with http.StripPrefix. On a clustered server the /v1/cluster
// surfaces are mounted too, and every response carries the membership
// epoch (X-Avtmor-Epoch).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/reduce", s.handleReduce)
	mux.HandleFunc("POST /v1/reduce/batch", s.handleReduceBatch)
	mux.HandleFunc("GET /v1/roms/{key}", s.handleGetROM)
	mux.HandleFunc("POST /v1/roms/{key}/simulate", s.handleSimulate)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	var h http.Handler = mux
	if s.cluster != nil {
		mux.HandleFunc("GET /v1/cluster/keys", s.handleClusterKeys)
		mux.HandleFunc("GET /v1/cluster/membership", s.handleGetMembership)
		mux.HandleFunc("POST /v1/cluster/membership", s.handlePostMembership)
		mux.HandleFunc("POST /v1/cluster/join", s.handleJoin)
		mux.HandleFunc("POST /v1/cluster/leave", s.handleLeave)
		mux.HandleFunc("PUT /v1/cluster/roms/{key}", s.handlePutReplica)
		h = s.withEpoch(h)
	}
	// Observability is the outermost layer: request IDs exist before
	// any routing decision, and the access log sees the final status.
	return s.withObservability(h)
}

// handleHealthz is the load-balancer (and ring-peer) health probe:
// "ok" while serving, 503 "draining" from the moment Drain or Close
// is called — before the listener stops accepting — so routers pull
// this node out of rotation ahead of hard connection errors.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// Close marks the server draining (/healthz → 503) and closes
// admission: requests waiting for it, and any that ask later, are
// answered 503, and Close returns once admitted work finishes (work
// holds a request context, so an upstream http.Server shutdown that
// cancels request contexts bounds the wait). Close is idempotent.
func (s *Server) Close() error {
	s.Drain()
	if cs := s.cluster; cs != nil && cs.sweeper != nil {
		cs.sweeper.Stop()
	}
	s.adm.close()
	s.repWG.Wait()
	return nil
}

// lookup resolves a content address to a servable ROM, or (nil, nil)
// when unknown.
func (s *Server) lookup(digest string) (*avtmor.ROM, error) {
	if s.st != nil {
		return s.st.Get(digest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem[digest], nil
}

// remember records a reduced artifact for by-address lookups when no
// store is configured, trimming oldest-first past CacheLimit so the
// persistence-disabled daemon stays bounded too.
func (s *Server) remember(digest string, rom *avtmor.ROM) {
	if s.st != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.mem[digest]; ok {
		return
	}
	s.mem[digest] = rom
	s.memOrder = append(s.memOrder, digest)
	if n := s.cfg.CacheLimit; n > 0 {
		for len(s.memOrder) > n {
			delete(s.mem, s.memOrder[0])
			s.memOrder = s.memOrder[1:]
		}
	}
}

// countError buckets a non-200 status into the error counters.
func (s *Server) countError(code int) {
	if code >= 500 {
		s.srvErrs.Add(1)
	} else if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		s.rejected.Add(1)
	} else {
		s.clientErrs.Add(1)
	}
}

// httpError writes a plain-text error and counts it.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.countError(code)
	http.Error(w, fmt.Sprintf(format, args...), code)
}
