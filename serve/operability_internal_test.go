package serve

// Internal tests of the operability tier: the admission ledger's
// fairness invariants, the cache-hit bypass that keeps warm traffic
// flowing through a saturated budget, and the scrape-consistency pin
// for the cluster gauges (the torn-read fix). These live inside the
// package because they reach the admission struct and the prom
// registry directly.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"avtmor/internal/promtext"
	"avtmor/internal/replica"
)

// TestAdmissionFairness pins the heavy-lane cap: a heavy request
// (cost > budget/8) may hold at most 7/8 of the budget, so cheap
// traffic always has a slice, while an idle server admits anything.
func TestAdmissionFairness(t *testing.T) {
	a := newAdmission(64) // budget/8 = 8, heavyCap = 56

	// Idle server: even a request dearer than the whole budget runs.
	relDear, ok := a.tryAdmit(100)
	if !ok {
		t.Fatal("idle server rejected a request dearer than the budget")
	}
	relDear()
	relDear() // release is idempotent
	if got := a.used(); got != 0 {
		t.Fatalf("after idempotent release: inUse = %d, want 0", got)
	}

	// A heavy request holds 40 of 64 units.
	relHeavy, ok := a.tryAdmit(40)
	if !ok {
		t.Fatal("idle server rejected the first heavy request")
	}
	// A second heavy (cost 20 > 8) would reach 60 > heavyCap 56: queued.
	if _, ok := a.tryAdmit(20); ok {
		t.Fatal("second heavy request admitted past the heavy cap")
	}
	// Cheap traffic still flows: 40+4 = 44 <= 64.
	relCheap, ok := a.tryAdmit(4)
	if !ok {
		t.Fatal("cheap request rejected while the heavy lane is capped")
	}
	relCheap()

	// admit() with an expired context sheds instead of blocking forever.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.admit(ctx, 20); err == nil {
		t.Fatal("admit returned no error with the heavy lane full and the context expired")
	}

	// Releasing the heavy holder wakes a waiter.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rel, err := a.admit(context.Background(), 20)
		if err != nil {
			t.Errorf("admit after release: %v", err)
			return
		}
		rel()
	}()
	relHeavy()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not woken by release")
	}
	if got := a.used(); got != 0 {
		t.Fatalf("final inUse = %d, want 0", got)
	}
}

// clipperBody is the 3-state diode clipper used by the external tests,
// duplicated here because test packages cannot share helpers.
const clipperBody = `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 2.0
D1 n1 0 1.0 0.05
R12 n1 n2 1.0
C2 n2 0 1.0
R2 n2 0 2.0
.out n2
`

// TestCacheHitBypassesSaturatedBudget is the queue-fairness
// acceptance check: with the admission budget fully reserved by
// expensive work, a warm key is still answered immediately (cache hits
// bypass the budget), while a cold key sheds with a
// cost-stamped 429 after its admission window.
func TestCacheHitBypassesSaturatedBudget(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), CostBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the key.
	resp, err := http.Post(ts.URL+"/v1/reduce?k1=2&k2=1&s0=0.4", "text/plain", strings.NewReader(clipperBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming reduce: %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderCost) == "" {
		t.Fatal("reduce response carries no X-Avtmor-Cost")
	}

	// Saturate: an expensive burst has reserved the whole budget.
	release, ok := s.adm.tryAdmit(8)
	if !ok {
		t.Fatal("could not reserve the full budget on an idle server")
	}
	defer release()

	// Warm key: answered from cache without touching the budget.
	done := make(chan *http.Response, 1)
	go func() {
		r2, err := http.Post(ts.URL+"/v1/reduce?k1=2&k2=1&s0=0.4", "text/plain", strings.NewReader(clipperBody))
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- r2
	}()
	select {
	case r2 := <-done:
		if r2 == nil {
			t.FailNow()
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("warm key under saturation: %d, want 200", r2.StatusCode)
		}
	case <-time.After(admitWindow + 3*time.Second):
		t.Fatal("warm key queued behind the saturated budget instead of bypassing it")
	}

	// Cold key: waits its window, then 429 with a cost-aware Retry-After.
	r3, err := http.Post(ts.URL+"/v1/reduce?k1=1&k2=1&s0=0.7", "text/plain", strings.NewReader(clipperBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold key under saturation: %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatal("admission 429 carries no Retry-After")
	}
	if r3.Header.Get(HeaderCost) == "" {
		t.Fatal("admission 429 carries no X-Avtmor-Cost")
	}
}

// TestClusterGaugeScrapeConsistency pins the torn-read fix: the
// cluster gauges (epoch, nodes, replicas) are read from one membership
// snapshot per scrape, so a scrape racing membership churn never pairs
// one view's epoch with another view's node count. Runs under -race in
// CI; the value assertion below catches the tear even without it.
func TestClusterGaugeScrapeConsistency(t *testing.T) {
	s, err := New(Config{
		StoreDir: t.TempDir(),
		Node:     "127.0.0.1:7101",
		Peers:    []string{"127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Churn: odd epochs see 3 peers, even epochs see 5. A torn read
	// shows an epoch with the other parity's node count.
	three := []string{"127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"}
	five := append(append([]string{}, three...), "127.0.0.1:7104", "127.0.0.1:7105")
	nodesFor := func(epoch uint64) float64 {
		if epoch%2 == 1 {
			return 3
		}
		return 5
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for epoch := uint64(10); ; epoch++ {
			select {
			case <-stop:
				return
			default:
			}
			peers := three
			if epoch%2 == 0 {
				peers = five
			}
			s.cluster.state.Apply(replica.Membership{Epoch: epoch, Peers: peers, Replicas: 1})
		}
	}()

	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if _, err := s.prom.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		scrape, err := promtext.Parse(&buf)
		if err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		epoch, ok := scrape.Value("avtmor_cluster_epoch")
		if !ok {
			t.Fatal("no avtmor_cluster_epoch in the scrape")
		}
		nodes, ok := scrape.Value("avtmor_cluster_nodes")
		if !ok {
			t.Fatal("no avtmor_cluster_nodes in the scrape")
		}
		if epoch >= 10 {
			if want := nodesFor(uint64(epoch)); nodes != want {
				t.Fatalf("torn scrape: epoch %g paired with %g nodes, want %g", epoch, nodes, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}
