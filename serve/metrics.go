package serve

// The server's one metric surface: GET /metrics renders an
// internal/promtext registry. The registry owns the server's own
// counters (the *promtext.Counter cells the handlers increment); the
// reducer, store and sweeper keep their own stats, which value
// functions read at scrape time. Cluster gauges that must be mutually
// consistent (epoch, node count, replication factor) are filled from
// ONE membership snapshot taken in an OnScrape prelude, so a scrape
// racing a membership transition can never observe a torn combination
// like the new epoch with the old node count.

import (
	"net/http"

	"avtmor"
	"avtmor/internal/promtext"
	"avtmor/internal/replica"
	"avtmor/internal/store"
)

// Histogram bucket layouts. Latency buckets span 100µs–60s (queue
// waits and reduces live at opposite ends); width buckets cover the
// practical batch range.
var (
	latencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60}
	widthBuckets   = []float64{1, 2, 4, 8, 16, 32, 64, 128}
)

// memSnap is the consistent membership snapshot the cluster gauges
// render from. It is refreshed under the registry lock by the OnScrape
// prelude, and only read by gauge funcs that run under that same lock
// — so epoch/nodes/replicas always describe one membership view.
type memSnap struct {
	epoch    uint64
	nodes    int
	replicas int
}

// initProm builds the Prometheus registry and its counter cells. Call
// after cluster construction.
func (s *Server) initProm() {
	r := promtext.NewRegistry()
	s.prom = r

	s.reduceReqs = r.Counter("avtmor_reduce_total", "Reduce requests received (counted before quota and admission).")
	s.simReqs = r.Counter("avtmor_simulate_total", "Simulation requests accepted for handling.")
	s.romGets = r.Counter("avtmor_rom_get_total", "By-address ROM GET requests.")
	s.batchReqs = r.Counter("avtmor_batch_total", "Batch reduce requests.")
	s.batchItems = r.Counter("avtmor_batch_items_total", "Items across all batch requests.")
	s.rejected = r.Counter("avtmor_rejected_total", "Requests shed with 429 or 503 (backpressure, drain).")
	s.clientErrs = r.Counter("avtmor_client_errors_total", "Requests answered with a 4xx other than backpressure.")
	s.srvErrs = r.Counter("avtmor_server_errors_total", "Requests answered with a 5xx.")
	s.quotaRejected = r.Counter("avtmor_quota_rejected_total", "Requests shed because the client's quota bucket was dry.")
	s.admissionRejected = r.Counter("avtmor_admission_rejected_total", "Requests shed because their cost did not fit the admission budget.")

	r.GaugeFunc("avtmor_admission_budget", "Concurrent cost budget, in admission units.",
		func() float64 { return float64(s.adm.budget) })
	r.GaugeFunc("avtmor_admission_in_use", "Admission units reserved by running requests.",
		func() float64 { return float64(s.adm.used()) })
	r.GaugeFunc("avtmor_draining", "1 while Drain/Close has been called, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	rstat := func(f func(avtmor.ReducerStats) int64) func() float64 {
		return func() float64 { return float64(f(s.reducer.Stats())) }
	}
	r.CounterFunc("avtmor_reductions_total", "Reductions actually executed (cache misses).",
		rstat(func(st avtmor.ReducerStats) int64 { return st.Reductions }))
	r.CounterFunc("avtmor_cache_hits_total", "Reduce requests answered from the in-memory ROM cache.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.CacheHits }))
	r.CounterFunc("avtmor_store_hits_total", "Reduce requests answered from the on-disk store.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.StoreHits }))
	r.CounterFunc("avtmor_store_errors_total", "Store read/write failures observed by the reducer.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.StoreErrors }))
	r.CounterFunc("avtmor_coalesced_total", "Reduce requests coalesced onto an identical in-flight reduction.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.Coalesced }))
	r.CounterFunc("avtmor_evictions_total", "ROMs evicted from the in-memory cache.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.Evictions }))
	r.GaugeFunc("avtmor_cached_roms", "ROMs resident in the in-memory cache.",
		rstat(func(st avtmor.ReducerStats) int64 { return int64(st.CachedROMs) }))
	r.GaugeFunc("avtmor_inflight_reductions", "Reductions executing or coalescing right now.",
		rstat(func(st avtmor.ReducerStats) int64 { return int64(st.InFlight) }))
	r.CounterFunc("avtmor_solver_factorizations_total", "Sparse/dense factorizations performed.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.Factorizations }))
	r.CounterFunc("avtmor_solver_batch_solves_total", "Blocked multi-RHS solve calls.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.BatchSolves }))
	r.CounterFunc("avtmor_solver_batch_columns_total", "Right-hand-side columns across blocked solves.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.BatchColumns }))
	r.CounterFunc("avtmor_solver_symbolic_analyses_total", "Symbolic LU analyses (pattern-level work).",
		rstat(func(st avtmor.ReducerStats) int64 { return st.SymbolicAnalyses }))
	r.CounterFunc("avtmor_solver_numeric_refactors_total", "Numeric refactorizations reusing a symbolic analysis.",
		rstat(func(st avtmor.ReducerStats) int64 { return st.NumericRefactors }))

	sstat := func(f func(store.Stats) int64) func() float64 {
		return func() float64 {
			if s.st == nil {
				return 0
			}
			return float64(f(s.st.Stats()))
		}
	}
	r.GaugeFunc("avtmor_store_roms", "Artifacts resident in the on-disk store.",
		sstat(func(st store.Stats) int64 { return int64(st.ROMs) }))
	r.GaugeFunc("avtmor_store_quarantined", "Store files quarantined by the magic sniff.",
		sstat(func(st store.Stats) int64 { return st.Quarantined }))
	r.CounterFunc("avtmor_store_loads_total", "Artifacts read and parsed from the on-disk store.",
		sstat(func(st store.Stats) int64 { return st.Loads }))
	r.CounterFunc("avtmor_store_raw_opens_total", "Store files opened for zero-copy GETs, unparsed.",
		sstat(func(st store.Stats) int64 { return st.RawOpens }))

	s.queueWait = r.Histogram("avtmor_queue_wait_seconds",
		"Time an admitted request waited for admission before computing.", latencyBuckets)
	s.reduceLatency = r.Histogram("avtmor_reduce_seconds",
		"End-to-end reduce handling time (admission wait + reduction).", latencyBuckets)
	s.simLatency = r.Histogram("avtmor_simulate_seconds",
		"End-to-end simulate handling time.", latencyBuckets)
	s.httpLatency = r.Histogram("avtmor_http_request_seconds",
		"Wall time of every HTTP request, all endpoints.", latencyBuckets)
	s.batchWidth = r.Histogram("avtmor_batch_width",
		"Items per batch request.", widthBuckets)

	if cs := s.cluster; cs != nil {
		cs.initProm(r)
		s.forwardLatency = r.Histogram("avtmor_forward_seconds",
			"Time to relay a request to a ring peer and stream its response.", latencyBuckets)
		s.pushLatency = r.Histogram("avtmor_replica_push_seconds",
			"Time to push one replica copy to a co-replica.", latencyBuckets)
	}
}

// initProm registers the cluster gauges and counters. The
// epoch/nodes/replicas trio reads the snap refreshed by the OnScrape
// prelude — the torn-read fix: one State.View() per scrape, not three
// independent reads racing a membership transition.
func (cs *clusterState) initProm(r *promtext.Registry) {
	cs.prom = r
	snap := &memSnap{}
	r.OnScrape(func() {
		ms, ring := cs.state.View()
		snap.epoch = ms.Epoch
		snap.nodes = ring.Len()
		snap.replicas = ms.Replicas
	})
	r.GaugeFunc("avtmor_cluster_epoch", "Membership epoch of this node's view.",
		func() float64 { return float64(snap.epoch) })
	r.GaugeFunc("avtmor_cluster_nodes", "Fleet size under this node's membership view.",
		func() float64 { return float64(snap.nodes) })
	r.GaugeFunc("avtmor_cluster_replicas", "Replication factor R under this node's membership view.",
		func() float64 { return float64(snap.replicas) })

	cs.ownerHits = r.Counter("avtmor_cluster_owner_hits_total", "Requests served here because the ring placed the key here.")
	cs.forwardedServes = r.Counter("avtmor_cluster_forwarded_serves_total", "Requests served here because a peer forwarded them (loop guard).")
	cs.localHits = r.Counter("avtmor_cluster_local_hits_total", "Peer-owned requests served from a local copy.")
	cs.fallbackLocal = r.Counter("avtmor_cluster_fallback_local_total", "Requests computed locally because every owner was unreachable or draining.")
	cs.replicaWrites = r.Counter("avtmor_cluster_replica_writes_total", "Replica copies accepted over PUT /v1/cluster/roms.")
	cs.replicaPushes = r.Counter("avtmor_cluster_replica_pushes_total", "Replica copies pushed to co-replicas.")
	cs.replicaPushErrors = r.Counter("avtmor_cluster_replica_push_errors_total", "Replica pushes that failed (anti-entropy will retry).")
	cs.readRepairs = r.Counter("avtmor_cluster_read_repairs_total", "Missing local copies restored from a co-replica during a GET.")
	cs.epochMismatches = r.Counter("avtmor_cluster_epoch_mismatches_total", "Requests or relays that met a peer on a different epoch.")
	cs.orphansMarked = r.Counter("avtmor_cluster_orphans_marked_total", "Fallback artifacts tagged for anti-entropy handoff.")

	sweep := func(f func(st replica.SweepStats) int64) func() float64 {
		return func() float64 {
			if cs.sweeper == nil {
				return 0
			}
			return float64(f(cs.sweeper.Stats()))
		}
	}
	r.CounterFunc("avtmor_cluster_anti_entropy_sweeps_total", "Anti-entropy sweep rounds completed.",
		sweep(func(st replica.SweepStats) int64 { return st.Sweeps }))
	r.CounterFunc("avtmor_cluster_anti_entropy_pulls_total", "Missing replica copies pulled during sweeps.",
		sweep(func(st replica.SweepStats) int64 { return st.Pulls }))
	r.CounterFunc("avtmor_cluster_orphan_handoffs_total", "Orphaned fallback artifacts handed to their owners.",
		sweep(func(st replica.SweepStats) int64 { return st.Handoffs }))
	r.CounterFunc("avtmor_cluster_membership_updates_total", "Membership views adopted from peers.",
		sweep(func(st replica.SweepStats) int64 { return st.MembershipUpdates }))

	// Statically configured peers get their per-peer counters now.
	for _, p := range cs.state.Ring().Nodes() {
		if p != cs.self {
			cs.peerVar(p)
		}
	}
}

// handlePromMetrics is GET /metrics: the Prometheus text exposition.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.prom.WriteTo(w)
}
