package avtmor_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"avtmor"
)

// fakeStore is an in-memory avtmor.ROMStore that round-trips through
// the wire format (like the real on-disk tier) and can be made to
// fail.
type fakeStore struct {
	mu                sync.Mutex
	m                 map[string][]byte
	loads, puts       int
	failLoad, failPut bool
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[string][]byte{}} }

func (f *fakeStore) Load(key string) (*avtmor.ROM, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	if f.failLoad {
		return nil, errors.New("fake store: load failure")
	}
	b, ok := f.m[key]
	if !ok {
		return nil, nil
	}
	return avtmor.ReadROM(bytes.NewReader(b))
}

func (f *fakeStore) Store(key string, rom *avtmor.ROM) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.failPut {
		return errors.New("fake store: write failure")
	}
	var b bytes.Buffer
	if _, err := rom.WriteTo(&b); err != nil {
		return err
	}
	f.m[key] = b.Bytes()
	return nil
}

func variantOpts(w *avtmor.Workload, k1 int) []avtmor.Option {
	return []avtmor.Option{avtmor.WithOrders(k1, 1, 0), avtmor.WithExpansion(w.S0)}
}

// TestReducerCacheLimit: WithCacheLimit evicts in LRU order, counts
// evictions, and an evicted key re-reduces (no store attached).
func TestReducerCacheLimit(t *testing.T) {
	rd := avtmor.NewReducer(avtmor.WithCacheLimit(2))
	w := avtmor.NTLCurrent(20)
	ctx := context.Background()
	for _, k1 := range []int{2, 3, 4} {
		if _, err := rd.Reduce(ctx, w.System, variantOpts(w, k1)...); err != nil {
			t.Fatal(err)
		}
	}
	st := rd.Stats()
	if st.Reductions != 3 || st.Evictions != 1 || st.CachedROMs != 2 {
		t.Fatalf("after 3 inserts with limit 2: %+v", st)
	}
	// k1=2 was coldest and went; k1=4 and k1=3 are resident.
	if _, err := rd.Reduce(ctx, w.System, variantOpts(w, 3)...); err != nil {
		t.Fatal(err)
	}
	if st = rd.Stats(); st.CacheHits != 1 || st.Reductions != 3 {
		t.Fatalf("resident entry re-reduced: %+v", st)
	}
	if _, err := rd.Reduce(ctx, w.System, variantOpts(w, 2)...); err != nil {
		t.Fatal(err)
	}
	if st = rd.Stats(); st.Reductions != 4 || st.Evictions != 2 {
		t.Fatalf("evicted entry served from thin air: %+v", st)
	}
	// The re-insert of k1=2 must have evicted k1=4 (LRU after the k1=3
	// touch), keeping k1=3 resident.
	if _, err := rd.Reduce(ctx, w.System, variantOpts(w, 3)...); err != nil {
		t.Fatal(err)
	}
	if st = rd.Stats(); st.CacheHits != 2 || st.Reductions != 4 {
		t.Fatalf("LRU order wrong — recently-used entry was evicted: %+v", st)
	}
}

// TestReducerStoreWriteThrough: every fresh reduction lands in the
// store; an in-memory miss (Purge or eviction) is served by the store
// without re-reducing, bit-identical.
func TestReducerStoreWriteThrough(t *testing.T) {
	fs := newFakeStore()
	rd := avtmor.NewReducer(avtmor.WithROMStore(fs))
	w := avtmor.NTLCurrent(20)
	ctx := context.Background()
	opts := variantOpts(w, 3)

	rom, err := rd.Reduce(ctx, w.System, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if fs.puts != 1 || fs.loads != 1 {
		t.Fatalf("write-through: %d puts, %d loads", fs.puts, fs.loads)
	}
	var want bytes.Buffer
	rom.WriteTo(&want)

	rd.Purge()
	got, err := rd.Reduce(ctx, w.System, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st := rd.Stats()
	if st.Reductions != 1 || st.StoreHits != 1 {
		t.Fatalf("store tier not consulted: %+v", st)
	}
	var have bytes.Buffer
	got.WriteTo(&have)
	if !bytes.Equal(have.Bytes(), want.Bytes()) {
		t.Fatal("store round trip is not bit-exact")
	}
	// Store-loaded cache entries are shared instances too: ReadFrom
	// must refuse to poison them.
	if _, err := got.ReadFrom(bytes.NewReader(want.Bytes())); err == nil {
		t.Fatal("ReadFrom on a store-loaded cached ROM must be refused")
	}
	// And the reloaded entry is now memory-resident.
	if _, err := rd.Reduce(ctx, w.System, opts...); err != nil {
		t.Fatal(err)
	}
	if st = rd.Stats(); st.CacheHits != 1 || st.StoreHits != 1 {
		t.Fatalf("reloaded entry missed memory: %+v", st)
	}
}

// TestReducerStoreSelfHeal: a memory-cache hit re-ensures the artifact
// is persisted, so a store entry lost behind the Reducer's back (disk
// corruption → quarantine) comes back on the next request instead of
// orphaning its content address until eviction or restart.
func TestReducerStoreSelfHeal(t *testing.T) {
	fs := newFakeStore()
	rd := avtmor.NewReducer(avtmor.WithROMStore(fs))
	w := avtmor.NTLCurrent(20)
	ctx := context.Background()
	opts := variantOpts(w, 3)
	if _, err := rd.Reduce(ctx, w.System, opts...); err != nil {
		t.Fatal(err)
	}
	key := avtmor.RequestKey(w.System, opts...)
	fs.mu.Lock()
	delete(fs.m, key) // "quarantined": the artifact vanishes from the store
	fs.mu.Unlock()
	if _, err := rd.Reduce(ctx, w.System, opts...); err != nil { // memory hit
		t.Fatal(err)
	}
	fs.mu.Lock()
	_, healed := fs.m[key]
	fs.mu.Unlock()
	if !healed {
		t.Fatal("memory-cache hit did not re-persist the lost artifact")
	}
	if st := rd.Stats(); st.Reductions != 1 || st.CacheHits != 1 {
		t.Fatalf("self-heal must not cost a reduction: %+v", st)
	}
}

// TestReducerStoreEvictionReload: with a cache limit AND a store, an
// evicted artifact comes back from the store, not from a recompute —
// the long-lived daemon configuration.
func TestReducerStoreEvictionReload(t *testing.T) {
	fs := newFakeStore()
	rd := avtmor.NewReducer(avtmor.WithCacheLimit(1), avtmor.WithROMStore(fs))
	w := avtmor.NTLCurrent(20)
	ctx := context.Background()
	if _, err := rd.Reduce(ctx, w.System, variantOpts(w, 2)...); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Reduce(ctx, w.System, variantOpts(w, 3)...); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Reduce(ctx, w.System, variantOpts(w, 2)...); err != nil {
		t.Fatal(err)
	}
	st := rd.Stats()
	if st.Reductions != 2 || st.StoreHits != 1 || st.Evictions != 2 || st.CachedROMs != 1 {
		t.Fatalf("eviction reload: %+v", st)
	}
}

// TestReducerStoreFailures: a broken store degrades the service to
// compute-only — requests still succeed, failures are counted.
func TestReducerStoreFailures(t *testing.T) {
	fs := newFakeStore()
	fs.failLoad, fs.failPut = true, true
	rd := avtmor.NewReducer(avtmor.WithROMStore(fs))
	w := avtmor.NTLCurrent(20)
	rom, err := rd.Reduce(context.Background(), w.System, variantOpts(w, 3)...)
	if err != nil || rom == nil {
		t.Fatalf("broken store must not fail the request: %v", err)
	}
	st := rd.Stats()
	if st.Reductions != 1 || st.StoreErrors != 2 {
		t.Fatalf("failure accounting: %+v", st)
	}
}

// TestReducerLookup: Lookup probes the in-memory cache and the store
// without ever launching a reduction — the serve tier's cluster
// routing relies on this to answer locally-present keys instead of
// forwarding them.
func TestReducerLookup(t *testing.T) {
	fs := newFakeStore()
	rd := avtmor.NewReducer(avtmor.WithROMStore(fs))
	w := avtmor.NTLCurrent(20)
	key := avtmor.RequestKey(w.System, variantOpts(w, 3)...)

	// Cold service: a miss, and no reduction was triggered.
	if rom, err := rd.Lookup(key); err != nil || rom != nil {
		t.Fatalf("cold Lookup = %v, %v; want miss", rom, err)
	}
	if st := rd.Stats(); st.Reductions != 0 {
		t.Fatalf("Lookup launched a reduction: %+v", st)
	}

	want, err := rd.Reduce(context.Background(), w.System, variantOpts(w, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	if rom, err := rd.Lookup(key); err != nil || rom != want {
		t.Fatalf("cache Lookup = %v, %v; want the cached instance", rom, err)
	}
	if st := rd.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache Lookup accounting: %+v", st)
	}

	// A fresh Reducer sharing only the store answers from the second
	// tier and promotes the artifact into its cache.
	rd2 := avtmor.NewReducer(avtmor.WithROMStore(fs))
	rom, err := rd2.Lookup(key)
	if err != nil || rom == nil {
		t.Fatalf("store Lookup = %v, %v", rom, err)
	}
	if st := rd2.Stats(); st.StoreHits != 1 || st.Reductions != 0 || st.CachedROMs != 1 {
		t.Fatalf("store Lookup accounting: %+v", st)
	}
	if again, err := rd2.Lookup(key); err != nil || again != rom {
		t.Fatalf("promoted entry not served from memory: %v, %v", again, err)
	}

	// Failures and degenerate keys are misses, not crashes.
	if rom, err := rd.Lookup(""); err != nil || rom != nil {
		t.Fatalf(`Lookup("") = %v, %v`, rom, err)
	}
	fs.failLoad = true
	if rom, err := avtmor.NewReducer(avtmor.WithROMStore(fs)).Lookup(key); err == nil || rom != nil {
		t.Fatalf("broken-store Lookup = %v, %v; want error", rom, err)
	}
}

// slowFsyncStore is a fakeStore whose Store makes the ROM loadable,
// then blocks until released: a write followed by a slow fsync.
type slowFsyncStore struct {
	*fakeStore
	written, release chan struct{}
}

func (s *slowFsyncStore) Store(key string, rom *avtmor.ROM) error {
	err := s.fakeStore.Store(key, rom)
	close(s.written)
	<-s.release
	return err
}

func (s *slowFsyncStore) loadCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads
}

// TestReducerLookupDuringWriteThrough: while a flight is writing its
// fresh ROM through to the store, Lookup misses without touching the
// store, and a Reduce of the same key joins the flight; neither is a
// store hit, and nothing returns before the write-through has finished.
func TestReducerLookupDuringWriteThrough(t *testing.T) {
	st := &slowFsyncStore{fakeStore: newFakeStore(), written: make(chan struct{}), release: make(chan struct{})}
	var release sync.Once
	defer release.Do(func() { close(st.release) })
	rd := avtmor.NewReducer(avtmor.WithROMStore(st))
	w := avtmor.NTLCurrent(20)
	opts := variantOpts(w, 3)
	key := avtmor.RequestKey(w.System, opts...)
	ctx := context.Background()

	done := make(chan error, 2)
	go func() {
		_, err := rd.Reduce(ctx, w.System, opts...)
		done <- err
	}()
	<-st.written
	loads := st.loadCount()
	if rom, err := rd.Lookup(key); rom != nil || err != nil {
		t.Fatalf("Lookup during the write-through = %v, %v; want a miss", rom, err)
	}
	if got := st.loadCount(); got != loads {
		t.Fatalf("Lookup during the write-through loaded from the store (%d → %d loads)", loads, got)
	}
	go func() {
		_, err := rd.Reduce(ctx, w.System, opts...)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for rd.Stats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second Reduce did not join the flight: %+v", rd.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("a Reduce returned (%v) before the write-through finished", err)
	default:
	}
	release.Do(func() { close(st.release) })
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := rd.Stats(); s.Reductions != 1 || s.Coalesced != 1 || s.StoreHits != 0 {
		t.Fatalf("want 1 reduction, 1 coalesced, no store hit: %+v", s)
	}
}
