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

// TestReducerSingleflight is the service acceptance check: N
// concurrent identical requests trigger exactly one underlying
// reduction and share one ROM. Run under -race in CI.
func TestReducerSingleflight(t *testing.T) {
	rd := avtmor.NewReducer()
	w := avtmor.NTLCurrent(50)
	opts := []avtmor.Option{avtmor.WithOrders(6, 3, 2), avtmor.WithExpansion(w.S0)}
	const callers = 16
	roms := make([]*avtmor.ROM, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			roms[i], errs[i] = rd.Reduce(context.Background(), w.System, opts...)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if roms[i] != roms[0] {
			t.Fatalf("caller %d received a different ROM instance", i)
		}
	}
	st := rd.Stats()
	if st.Reductions != 1 {
		t.Fatalf("%d underlying reductions for identical requests, want exactly 1", st.Reductions)
	}
	if st.Coalesced != callers-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, callers-1)
	}
	if st.CachedROMs != 1 {
		t.Fatalf("cache population %d", st.CachedROMs)
	}
	// A later identical request is a pure cache hit.
	again, err := rd.Reduce(context.Background(), w.System, opts...)
	if err != nil || again != roms[0] {
		t.Fatalf("cache hit failed: %v", err)
	}
	if st = rd.Stats(); st.CacheHits != 1 || st.Reductions != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
	// Cache entries are shared instances: ReadFrom must refuse to
	// mutate them rather than let one caller poison every other's ROM.
	if _, err := again.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadFrom on a Reducer-cached ROM must be refused")
	}
	// And a nil system errors instead of panicking in the key hash.
	if _, err := rd.Reduce(context.Background(), nil); err == nil {
		t.Fatal("nil system must error")
	}
}

// TestReducerDistinctRequests: concurrent different requests do not
// coalesce — each gets its own reduction, and the cache keys them
// apart.
func TestReducerDistinctRequests(t *testing.T) {
	rd := avtmor.NewReducer()
	w := avtmor.NTLCurrent(40)
	variants := [][]avtmor.Option{
		{avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0)},
		{avtmor.WithOrders(5, 2, 0), avtmor.WithExpansion(w.S0)},
		{avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0, 0.4)},
		{avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0), avtmor.WithDropTol(1e-10)},
	}
	roms := make([]*avtmor.ROM, len(variants))
	var wg sync.WaitGroup
	for i, opts := range variants {
		wg.Add(1)
		go func(i int, opts []avtmor.Option) {
			defer wg.Done()
			var err error
			roms[i], err = rd.Reduce(context.Background(), w.System, opts...)
			if err != nil {
				t.Errorf("variant %d: %v", i, err)
			}
		}(i, opts)
	}
	wg.Wait()
	st := rd.Stats()
	if st.Reductions != int64(len(variants)) || st.CachedROMs != len(variants) {
		t.Fatalf("stats: %+v, want %d distinct reductions", st, len(variants))
	}
	// Parallel does not participate in the key: the same request with
	// it toggled is a cache hit.
	again, err := rd.Reduce(context.Background(), w.System,
		avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0),
		avtmor.WithParallel())
	if err != nil || again != roms[0] {
		t.Fatalf("Parallel changed the cache key: %v", err)
	}
	// NORM is keyed separately from assoc.
	nm, err := rd.ReduceNORM(context.Background(), w.System,
		avtmor.WithOrders(4, 2, 0), avtmor.WithExpansion(w.S0))
	if err != nil {
		t.Fatal(err)
	}
	if nm == roms[0] || nm.Method() != "norm" {
		t.Fatal("NORM request must not alias the assoc cache entry")
	}
}

// TestReducerWaiterCancellation: one waiter abandoning does not kill
// the reduction another still wants; abandoning them all does, and the
// aborted result is not cached. Each step waits on the Reducer's own
// counters, not on the scheduler: the impatient caller starts once the
// patient flight is in flight and is canceled once it has joined it,
// and the solo caller is canceled once its flight is in flight.
func TestReducerWaiterCancellation(t *testing.T) {
	waitFor := func(rd *avtmor.Reducer, what string, cond func(avtmor.ReducerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(rd.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, rd.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	rd := avtmor.NewReducer()
	w := avtmor.RLCLine(2000)
	opts := []avtmor.Option{avtmor.WithOrders(200, 0, 0), avtmor.WithSolver(avtmor.SolverSparse)}

	impatient, cancelImpatient := context.WithCancel(context.Background())
	patientDone := make(chan error, 1)
	impatientDone := make(chan error, 1)
	go func() {
		_, err := rd.Reduce(context.Background(), w.System, opts...)
		patientDone <- err
	}()
	waitFor(rd, "the patient flight", func(st avtmor.ReducerStats) bool { return st.InFlight == 1 })
	go func() {
		_, err := rd.Reduce(impatient, w.System, opts...)
		impatientDone <- err
	}()
	waitFor(rd, "the impatient caller to join", func(st avtmor.ReducerStats) bool { return st.Coalesced == 1 })
	cancelImpatient()
	if err := <-impatientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter: %v", err)
	}
	if err := <-patientDone; err != nil {
		t.Fatalf("patient waiter must still get its ROM: %v", err)
	}
	if st := rd.Stats(); st.Reductions != 1 || st.CachedROMs != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// All waiters gone: the in-flight reduction aborts and nothing is
	// cached under that key. A longer Krylov chain keeps the flight
	// safely mid-generation when the cancel lands.
	rd2 := avtmor.NewReducer()
	longOpts := []avtmor.Option{avtmor.WithOrders(800, 0, 0), avtmor.WithSolver(avtmor.SolverSparse)}
	solo, cancelSolo := context.WithCancel(context.Background())
	soloDone := make(chan error, 1)
	go func() {
		_, err := rd2.Reduce(solo, w.System, longOpts...)
		soloDone <- err
	}()
	waitFor(rd2, "the solo flight", func(st avtmor.ReducerStats) bool { return st.InFlight == 1 })
	cancelSolo()
	if err := <-soloDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("solo waiter: %v", err)
	}
	// Wait for the abandoned flight to unwind, then verify nothing was
	// cached under its key.
	waitFor(rd2, "the abandoned flight to unwind", func(st avtmor.ReducerStats) bool { return st.InFlight == 0 })
	if st := rd2.Stats(); st.CachedROMs != 0 {
		t.Fatalf("abandoned reduction was cached: %+v", st)
	}
}
