package avtmor

import (
	"container/list"
	"context"
	"sync"
)

// Reducer is a concurrency-safe reduction service: a ROM cache keyed
// by (system fingerprint, canonicalized options) with singleflight
// semantics. N concurrent identical requests trigger exactly one
// underlying reduction — the others coalesce onto it and share the
// result — which lifts the paper's "LU of G1 for once" amortization
// one level higher, across requests.
//
// The in-memory cache holds completed ROMs until Purge, or — under
// WithCacheLimit — evicts least-recently-used entries so a long-lived
// daemon cannot grow without bound. With a WithROMStore second tier,
// the cache is write-through: every fresh reduction is persisted, an
// in-memory miss consults the store before reducing, and an evicted
// entry is therefore a cheap store load away instead of a recompute.
//
// Cancellation is per caller: a waiter whose context expires returns
// immediately, and the in-flight reduction itself is canceled only
// when every waiter has given up (so one impatient client cannot kill
// work others still want). Abandoned reductions are not cached; the
// next request recomputes.
//
// Every outcome is counted in Stats; the serving tier bridges those
// counters onto its metrics endpoints (docs/METRICS.md), so Reducer
// accounting is fleet observability.
type Reducer struct {
	mu       sync.Mutex
	cache    map[string]*list.Element // guarded by mu; key → entry in lru
	lru      *list.List               // guarded by mu; of *cacheEntry; front = most recently used
	limit    int                      // > 0 bounds len(cache)
	store    ROMStore
	inflight map[string]*flight // guarded by mu

	stats ReducerStats // guarded by mu
}

type cacheEntry struct {
	key string
	rom *ROM
}

type flight struct {
	refs   int // waiters still interested
	cancel context.CancelFunc
	done   chan struct{}
	rom    *ROM
	err    error
}

// ROMStore is a second-tier ROM cache consulted on in-memory misses
// and written through on every fresh reduction — typically an on-disk,
// process-surviving artifact store (the serve package wires one up).
// Implementations must be safe for concurrent use, including
// same-key calls: in-memory cache hits re-issue Store to heal
// externally deleted or quarantined artifacts, so Store should be
// cheap (an index probe) when the key is already persisted.
type ROMStore interface {
	// Load returns the ROM stored under key, or (nil, nil) on a miss.
	// A returned ROM must be a fresh instance (e.g. via ReadROM): the
	// Reducer publishes it as a shared cache entry.
	Load(key string) (*ROM, error)
	// Store persists rom under key.
	Store(key string, rom *ROM) error
}

// ReducerOption configures a Reducer at construction.
type ReducerOption func(*Reducer)

// WithCacheLimit bounds the in-memory ROM cache to at most n entries,
// evicting least-recently-used ROMs (counted in Stats().Evictions).
// n <= 0 keeps the default: unbounded.
func WithCacheLimit(n int) ReducerOption {
	return func(rd *Reducer) { rd.limit = n }
}

// WithROMStore attaches a write-through second-tier store.
func WithROMStore(st ROMStore) ReducerOption {
	return func(rd *Reducer) { rd.store = st }
}

// ReducerStats counts the service's lifetime outcomes.
type ReducerStats struct {
	// Reductions is the number of underlying reductions actually
	// executed; CacheHits the requests served from the in-memory
	// completed-ROM cache; Coalesced the requests that joined an
	// in-flight reduction; StoreHits the requests served by loading
	// from the second-tier ROMStore instead of reducing.
	Reductions, CacheHits, Coalesced, StoreHits int64
	// StoreErrors counts failed ROMStore Load/Store calls. They are
	// never fatal to the request — a failed load falls through to a
	// fresh reduction, a failed write-through still returns the ROM.
	StoreErrors int64
	// Evictions counts in-memory LRU evictions under WithCacheLimit.
	Evictions int64
	// Solver-spine aggregates across every fresh reduction this service
	// executed (cache/store hits contribute nothing — their solve work
	// was paid when the artifact was first built): shifted-pencil factor
	// steps, block back-solve calls, and the RHS columns those blocks
	// carried. BatchColumns/BatchSolves is the realized multi-RHS
	// batching width of the fleet. SymbolicAnalyses/NumericRefactors
	// split the sparse factor steps into full symbolic analyses vs
	// numeric-only refills of a cached pattern — the refactor share is
	// the symbolic/numeric split's amortization across the fleet.
	Factorizations, BatchSolves, BatchColumns int64
	SymbolicAnalyses, NumericRefactors        int64
	// CachedROMs is the current cache population; InFlight the
	// reductions currently executing.
	CachedROMs, InFlight int
}

// NewReducer returns an empty reduction service.
func NewReducer(opts ...ReducerOption) *Reducer {
	rd := &Reducer{
		cache:    map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*flight{},
	}
	for _, o := range opts {
		o(rd)
	}
	return rd
}

// Stats returns a snapshot of the service counters.
func (rd *Reducer) Stats() ReducerStats {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	s := rd.stats
	s.CachedROMs = rd.lru.Len()
	s.InFlight = len(rd.inflight)
	return s
}

// Purge drops every in-memory cached ROM (in-flight reductions and the
// ROMStore are unaffected).
func (rd *Reducer) Purge() {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rd.cache = map[string]*list.Element{}
	rd.lru.Init()
}

// RequestKey returns the canonical cache key of a Reduce request — the
// system fingerprint plus every option that changes the resulting ROM
// (see Reducer.Reduce). It is the key space shared by the in-memory
// cache and any attached ROMStore, so callers that address artifacts
// out of band (the serve package's content-addressed store) derive
// their addresses from it. Returns "" for a nil system.
func RequestKey(sys *System, opts ...Option) string {
	return requestKey(sys, methodAssoc, opts)
}

// RequestKeyNORM is RequestKey for ReduceNORM requests (a distinct key
// space).
func RequestKeyNORM(sys *System, opts ...Option) string {
	return requestKey(sys, methodNORM, opts)
}

func requestKey(sys *System, method string, opts []Option) string {
	if sys == nil || sys.sys == nil {
		return ""
	}
	return buildConfig(opts).cacheKey(sys, method)
}

// Lookup returns the ROM already available under a canonical request
// key (see RequestKey) without ever launching a reduction: the
// in-memory cache is probed first (counted in CacheHits, refreshing
// the LRU position), then the attached ROMStore (counted in
// StoreHits, and promoted into the in-memory cache). A miss returns
// (nil, nil). A store read failure returns (nil, err) and counts in
// StoreErrors — callers that can compute elsewhere (the serve tier's
// cluster forwarding treats a Lookup miss as "ask the owner") should
// treat it as a miss.
//
// A key that a live flight holds is a miss even when the flight has
// already written its ROM through to the store: the caller joins the
// flight through Reduce instead, is counted as coalesced, and returns
// only after the write-through has finished.
func (rd *Reducer) Lookup(key string) (*ROM, error) {
	if key == "" {
		return nil, nil
	}
	rd.mu.Lock()
	if el, ok := rd.cache[key]; ok {
		rd.stats.CacheHits++
		rd.lru.MoveToFront(el)
		rom := el.Value.(*cacheEntry).rom
		rd.mu.Unlock()
		return rom, nil
	}
	if fl, ok := rd.inflight[key]; ok && fl.refs > 0 {
		rd.mu.Unlock()
		return nil, nil
	}
	st := rd.store
	rd.mu.Unlock()
	if st == nil {
		return nil, nil
	}
	rom, err := st.Load(key)
	if err != nil {
		rd.mu.Lock()
		rd.stats.StoreErrors++
		rd.mu.Unlock()
		return nil, err
	}
	if rom == nil {
		return nil, nil
	}
	rom.shared = true
	rd.mu.Lock()
	rd.stats.StoreHits++
	rd.cacheAdd(key, rom)
	rd.mu.Unlock()
	return rom, nil
}

// Reduce returns the cached ROM for (sys, opts), joining an in-flight
// identical reduction or launching a new one. The options are
// canonicalized for the cache key: everything that changes the ROM
// participates; WithParallel does not. See Reduce for the reduction
// semantics.
func (rd *Reducer) Reduce(ctx context.Context, sys *System, opts ...Option) (*ROM, error) {
	return rd.reduce(ctx, sys, methodAssoc, opts)
}

// ReduceNORM is Reduce with the NORM baseline engine (cached under a
// distinct key space).
func (rd *Reducer) ReduceNORM(ctx context.Context, sys *System, opts ...Option) (*ROM, error) {
	return rd.reduce(ctx, sys, methodNORM, opts)
}

func (rd *Reducer) reduce(ctx context.Context, sys *System, method string, opts []Option) (*ROM, error) {
	if sys == nil || sys.sys == nil {
		return nil, errNilSystem
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// A dead-on-arrival context must not launch (and immediately
		// abandon) a flight.
		return nil, err
	}
	cfg := buildConfig(opts)
	key := cfg.cacheKey(sys, method)

	rd.mu.Lock()
	if el, ok := rd.cache[key]; ok {
		rd.stats.CacheHits++
		rd.lru.MoveToFront(el)
		rom := el.Value.(*cacheEntry).rom
		rd.mu.Unlock()
		// Re-ensure persistence on every hit: a no-op index probe when
		// the artifact is on disk, a rewrite when it was quarantined
		// or deleted behind our back — so a memory-resident entry
		// cannot indefinitely orphan its advertised content address.
		rd.ensureStored(key, rom)
		return rom, nil
	}
	fl, ok := rd.inflight[key]
	if ok && fl.refs > 0 {
		fl.refs++
		rd.stats.Coalesced++
	} else {
		// Launch a fresh flight. refs == 0 means the listed flight was
		// abandoned (every waiter canceled, fl.cancel fired) and is
		// merely unwinding — joining it would hand this live caller a
		// context.Canceled it did not cause, so replace the entry; the
		// old goroutine's cleanup only deletes its own entry.
		//
		// The flight runs under its own cancelable context detached
		// from any single caller's: it must survive one waiter's
		// cancellation as long as another still wants the result.
		//avtmorlint:ignore ctxflow the flight is deliberately detached: it must survive one waiter's cancellation while others still wait
		ictx, cancel := context.WithCancel(context.Background())
		fl = &flight{refs: 1, cancel: cancel, done: make(chan struct{})}
		rd.inflight[key] = fl
		go func(fl *flight) {
			rom, err := rd.fill(ictx, sys, method, cfg, key)
			fl.rom, fl.err = rom, err
			rd.mu.Lock()
			if rd.inflight[key] == fl {
				delete(rd.inflight, key)
			}
			if err == nil {
				rd.cacheAdd(key, rom)
			}
			rd.mu.Unlock()
			close(fl.done)
			cancel()
		}(fl)
	}
	rd.mu.Unlock()

	select {
	case <-fl.done:
		return fl.rom, fl.err
	case <-ctx.Done():
		rd.mu.Lock()
		fl.refs--
		abandoned := fl.refs == 0
		rd.mu.Unlock()
		if abandoned {
			fl.cancel()
		}
		return nil, ctx.Err()
	}
}

// fill produces the ROM for one flight: second-tier store load when
// available, fresh reduction otherwise, written through to the store.
// The returned ROM is marked shared before publication (the flight's
// close(done) is the happens-before edge): it is about to become a
// cache entry handed to arbitrarily many callers, and ReadFrom must
// refuse to mutate it.
func (rd *Reducer) fill(ctx context.Context, sys *System, method string, cfg *config, key string) (*ROM, error) {
	if rd.store != nil {
		switch rom, err := rd.store.Load(key); {
		case err != nil:
			// Fall through to a fresh reduction.
			rd.mu.Lock()
			rd.stats.StoreErrors++
			rd.mu.Unlock()
		case rom != nil:
			rom.shared = true
			rd.mu.Lock()
			rd.stats.StoreHits++
			rd.mu.Unlock()
			return rom, nil
		}
	}
	rd.mu.Lock()
	rd.stats.Reductions++
	rd.mu.Unlock()
	rom, err := reduceWith(ctx, sys, method, cfg)
	if err != nil {
		return nil, err
	}
	st := rom.Stats()
	rd.mu.Lock()
	rd.stats.Factorizations += st.Factorizations
	rd.stats.BatchSolves += st.BatchSolves
	rd.stats.BatchColumns += st.BatchColumns
	rd.stats.SymbolicAnalyses += st.SymbolicAnalyses
	rd.stats.NumericRefactors += st.NumericRefactors
	rd.mu.Unlock()
	rom.shared = true
	rd.ensureStored(key, rom)
	return rom, nil
}

// ensureStored write-throughs rom to the second tier when one is
// attached. Failures are counted, never fatal.
func (rd *Reducer) ensureStored(key string, rom *ROM) {
	if rd.store == nil {
		return
	}
	if err := rd.store.Store(key, rom); err != nil {
		rd.mu.Lock()
		rd.stats.StoreErrors++
		rd.mu.Unlock()
	}
}

// cacheAdd inserts (key, rom) as most recently used and evicts from
// the cold end past the limit. Caller holds rd.mu.
func (rd *Reducer) cacheAdd(key string, rom *ROM) {
	if el, ok := rd.cache[key]; ok {
		// Double completion on one key: an abandoned flight whose
		// store load or reduction finished anyway, racing the
		// replacement flight a later caller launched. Refresh the
		// existing entry in place — pushing a second element would
		// orphan one in the LRU list and desynchronize eviction.
		el.Value.(*cacheEntry).rom = rom
		rd.lru.MoveToFront(el)
		return
	}
	rd.cache[key] = rd.lru.PushFront(&cacheEntry{key: key, rom: rom})
	for rd.limit > 0 && rd.lru.Len() > rd.limit {
		back := rd.lru.Back()
		rd.lru.Remove(back)
		delete(rd.cache, back.Value.(*cacheEntry).key)
		rd.stats.Evictions++
	}
}
