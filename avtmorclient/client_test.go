package avtmorclient_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"avtmor/avtmorclient"
	"avtmor/internal/promtext"
	"avtmor/serve"
)

const clipper = `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 2.0
D1 n1 0 1.0 0.05
R12 n1 n2 1.0
C2 n2 0 1.0
R2 n2 0 2.0
.out n2
`

var reduceParams = url.Values{"k1": {"2"}, "k2": {"1"}, "s0": {"0.4"}}

// fleet is a real N-node avtmord cluster for client tests.
type fleet struct {
	addrs []string
	urls  []string
}

func startFleet(t testing.TB, n int) *fleet {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	f := &fleet{addrs: addrs}
	for i := range lns {
		s, err := serve.New(serve.Config{
			StoreDir: t.TempDir(),
			Node:     addrs[i],
			Peers:    addrs,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(lns[i])
		t.Cleanup(func() { srv.Close(); s.Close() })
		f.urls = append(f.urls, "http://"+addrs[i])
	}
	return f
}

// nodeMetric scrapes one node's GET /metrics through the strict
// exposition parser and returns one sample name summed across its
// label sets.
func nodeMetric(t testing.TB, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("node %s: invalid exposition: %v", url, err)
	}
	v, ok := scrape.Value(name)
	if !ok {
		t.Fatalf("node %s emits no %s", url, name)
	}
	return v
}

// fleetMetric sums nodeMetric across the fleet.
func fleetMetric(t testing.TB, f *fleet, name string) float64 {
	t.Helper()
	var total float64
	for _, u := range f.urls {
		total += nodeMetric(t, u, name)
	}
	return total
}

// fleetForwards sums every node's outbound peer forwards — the relay
// hops a ring-aware client exists to avoid.
func fleetForwards(t testing.TB, f *fleet) float64 {
	t.Helper()
	return fleetMetric(t, f, "avtmor_cluster_peer_forwards_total")
}

func fleetReductions(t testing.TB, f *fleet) float64 {
	t.Helper()
	return fleetMetric(t, f, "avtmor_reductions_total")
}

// TestClientDirectPlacement: the ring-aware client computes the key's
// owner itself and dials it directly — one reduction fleet-wide and
// zero relay hops — then revalidates a repeat GET out of its local
// cache via ETag.
func TestClientDirectPlacement(t *testing.T) {
	f := startFleet(t, 3)
	c, err := avtmorclient.New(avtmorclient.Config{Nodes: f.addrs})
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()

	res, err := c.Reduce(ctx, []byte(clipper), reduceParams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == "" || res.ROM == nil || res.ROM.Order() < 1 {
		t.Fatalf("degenerate result: key=%q rom=%v", res.Key, res.ROM)
	}
	if got := fleetReductions(t, f); got != 1 {
		t.Fatalf("fleet reductions = %v, want 1", got)
	}
	if got := fleetForwards(t, f); got != 0 {
		t.Fatalf("fleet forwards = %v, want 0 — the client paid the relay tax", got)
	}
	// The reduction landed on the node the client itself places the key
	// on: client-side and server-side rings agree.
	owner := c.Owner(res.Key)
	for i, addr := range f.addrs {
		red := nodeMetric(t, f.urls[i], "avtmor_reductions_total")
		if (addr == owner) != (red == 1) {
			t.Fatalf("node %s: reductions=%v, client says owner is %s", addr, red, owner)
		}
	}

	// First GET may hit the wire; the second must revalidate via ETag.
	raw1, err := c.GetROM(ctx, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, res.Raw) {
		t.Fatal("GetROM bytes differ from the reduce response")
	}
	raw2, err := c.GetROM(ctx, res.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw2, raw1) {
		t.Fatal("revalidated bytes differ")
	}
	if st := c.Stats(); st.Revalidated < 1 {
		t.Fatalf("stats = %+v, want at least one 304 revalidation", st)
	}
}

// TestClientBatch: batch submission through the client splits by
// owner, reports per-item failures, and leaves the fleet with exactly
// one reduction per good item and no relay hops.
func TestClientBatch(t *testing.T) {
	f := startFleet(t, 3)
	c, err := avtmorclient.New(avtmorclient.Config{Nodes: f.addrs})
	if err != nil {
		t.Fatal(err)
	}
	good1 := fmt.Sprintf(string(clipperVarT), 2.0)
	good2 := fmt.Sprintf(string(clipperVarT), 3.0)
	items, err := c.ReduceBatch(t.Context(), [][]byte{[]byte(good1), []byte("R1 notanode\n"), []byte(good2)}, reduceParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items", len(items))
	}
	if !items[0].OK() || !items[2].OK() {
		t.Fatalf("good items failed: %+v", items)
	}
	if items[1].Status != http.StatusBadRequest || items[1].Err == "" {
		t.Fatalf("bad item: %+v", items[1])
	}
	if items[0].Key == items[2].Key {
		t.Fatal("distinct circuits share a content address")
	}
	if got := fleetReductions(t, f); got != 2 {
		t.Fatalf("fleet reductions = %v, want 2", got)
	}
	if got := fleetForwards(t, f); got != 0 {
		t.Fatalf("fleet forwards = %v, want 0", got)
	}
	// Batch results primed the client cache: GETs revalidate.
	if _, err := c.GetROM(t.Context(), items[0].Key); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Revalidated < 1 {
		t.Fatalf("stats = %+v: batch did not prime the revalidation cache", st)
	}
}

const clipperVarT = `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 %.9f
D1 n1 0 1.0 0.05
R12 n1 n2 1.0
C2 n2 0 1.0
R2 n2 0 2.0
.out n2
`

// TestClientRetryBackoff: 429 answers with Retry-After are retried
// (honoring the header) until the node recovers; a node that never
// recovers surfaces the final status error after MaxRetries.
func TestClientRetryBackoff(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "admission budget exhausted, retry later", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("rom-bytes"))
	}))
	defer ts.Close()
	addr := ts.Listener.Addr().String()
	c, err := avtmorclient.New(avtmorclient.Config{
		Nodes:       []string{addr},
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := c.GetROM(t.Context(), "deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "rom-bytes" {
		t.Fatalf("got %q", raw)
	}
	st := c.Stats()
	if st.Requests != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 requests / 2 retries", st)
	}

	// A node that never recovers: the client gives up with the server's
	// status after exhausting its retries, bounded, not hanging.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "still saturated", http.StatusTooManyRequests)
	}))
	defer always.Close()
	c2, err := avtmorclient.New(avtmorclient.Config{
		Nodes:       []string{always.Listener.Addr().String()},
		MaxRetries:  2,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c2.GetROM(t.Context(), "deadbeef")
	var se *avtmorclient.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want wrapped 429 StatusError", err)
	}
	if got := c2.Stats().Requests; got != 3 {
		t.Fatalf("%d requests for MaxRetries=2, want 3", got)
	}

	// Context cancellation interrupts the backoff sleep promptly.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusTooManyRequests)
	}))
	defer slow.Close()
	c3, err := avtmorclient.New(avtmorclient.Config{Nodes: []string{slow.Listener.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c3.GetROM(ctx, "deadbeef"); err == nil {
		t.Fatal("canceled retry loop reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; Retry-After sleep was not interruptible", elapsed)
	}
}

// TestClientFailover: with the owner down, the client walks the
// remaining nodes and the fleet still answers (owner-down fallback on
// the server side), so placement is a latency optimization, never a
// single point of failure.
func TestClientFailover(t *testing.T) {
	f := startFleet(t, 2)
	// A third configured node that is not listening at all.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	c, err := avtmorclient.New(avtmorclient.Config{Nodes: append([]string{deadAddr}, f.addrs...)})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the owner of this key is, the call must succeed: if the
	// dead node owns it the client fails over; if a live one does it
	// goes straight there.
	res, err := c.Reduce(t.Context(), []byte(clipper), reduceParams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == "" {
		t.Fatal("no content address")
	}
	if c.Owner(res.Key) == deadAddr {
		if c.Stats().Failovers < 1 {
			t.Fatalf("owner was dead but stats show no failover: %+v", c.Stats())
		}
	}
}
