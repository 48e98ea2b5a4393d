package serve_test

// E2E tests of the cluster tier: N real serve.Servers behind real TCP
// listeners, a shared static peer list, and the assertions that make
// the sharding story true — any entry node answers with the
// byte-identical artifact while exactly one node pays the reduction,
// and a dead owner degrades to local compute instead of a 5xx.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"avtmor/internal/cluster"
	"avtmor/internal/query"
	"avtmor/internal/store"
	"avtmor/internal/wire"
	"avtmor/serve"
)

// clusterNode is one in-process daemon: a serve.Server on its own
// listener and store directory, sharing the fleet's peer list.
type clusterNode struct {
	s    *serve.Server
	srv  *http.Server
	addr string
	url  string
	dead bool
}

// startCluster boots n nodes whose -peers lists contain each other.
// Listeners are created first so every node knows the full address set
// before any server starts.
func startCluster(t testing.TB, n int) []*clusterNode {
	return startClusterCfg(t, n, nil)
}

// startClusterCfg is startCluster with a per-node Config hook, applied
// after the shared fields are set (access-log sinks, quotas, budgets).
func startClusterCfg(t testing.TB, n int, mut func(i int, cfg *serve.Config)) []*clusterNode {
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
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := serve.Config{
			StoreDir: t.TempDir(),
			Node:     addrs[i],
			Peers:    addrs,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		node := &clusterNode{
			s:    s,
			srv:  &http.Server{Handler: s.Handler()},
			addr: addrs[i],
			url:  "http://" + addrs[i],
		}
		go node.srv.Serve(lns[i])
		nodes[i] = node
		t.Cleanup(func() { node.kill(t) })
	}
	return nodes
}

// kill hard-stops a node: listener and connections closed, admitted
// work drained. Idempotent.
func (n *clusterNode) kill(t testing.TB) {
	t.Helper()
	if n.dead {
		return
	}
	n.dead = true
	n.srv.Close()
	n.s.Close()
}

// totalReductions sums the reductions counter across the fleet's
// surviving nodes.
func totalReductions(t testing.TB, nodes []*clusterNode) float64 {
	t.Helper()
	var total float64
	for _, n := range nodes {
		if n.dead {
			continue
		}
		total += metrics(t, n.url)("avtmor_reductions_total")
	}
	return total
}

// ownerIndex identifies the node that performed a reduction (the
// ring owner of the test circuit's key).
func ownerIndex(t testing.TB, nodes []*clusterNode) int {
	t.Helper()
	owner := -1
	for i, n := range nodes {
		if n.dead {
			continue
		}
		if metrics(t, n.url)("avtmor_reductions_total") > 0 {
			if owner >= 0 {
				t.Fatalf("nodes %d and %d both reduced", owner, i)
			}
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no node performed a reduction")
	}
	return owner
}

// TestClusterSingleOwner is the tentpole acceptance test: a reduce
// issued to every entry node of a 3-node fleet returns byte-identical
// artifacts while exactly one node performs the reduction, and
// by-address GET/simulate requests work through any entry node.
func TestClusterSingleOwner(t *testing.T) {
	nodes := startCluster(t, 3)

	bodies := make([][]byte, len(nodes))
	var key string
	for i, n := range nodes {
		var k string
		bodies[i], k = postReduce(t, n.url, reducePath, clipper)
		if key == "" {
			key = k
		} else if k != key {
			t.Fatalf("node %d returned content address %s, node 0 returned %s", i, k, key)
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("node %d returned different artifact bytes", i)
		}
	}
	if total := totalReductions(t, nodes); total != 1 {
		t.Fatalf("total reductions across the fleet = %v, want exactly 1", total)
	}
	owner := ownerIndex(t, nodes)

	// The owner's cluster counters show it answered for its keyspace;
	// every other node shows the forward.
	for i, n := range nodes {
		m := metrics(t, n.url)
		if i == owner {
			if fs := m("avtmor_cluster_forwarded_serves_total"); fs < 2 {
				t.Fatalf("owner forwarded serves = %v, want >= 2", fs)
			}
			continue
		}
		if f := m(peerSeries("avtmor_cluster_peer_forwards_total", nodes[owner].addr)); f < 1 {
			t.Fatalf("node %d never forwarded to the owner (%v forwards)", i, f)
		}
		if fe := m(peerSeries("avtmor_cluster_peer_forward_errors_total", nodes[owner].addr)); fe != 0 {
			t.Fatalf("node %d saw %v forward errors against a healthy owner", i, fe)
		}
	}

	// By-address fetch through every entry node: same bytes, exactly
	// one stored copy (the owner's).
	stored := 0
	for i, n := range nodes {
		resp, err := http.Get(n.url + "/v1/roms/" + key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, bodies[0]) {
			t.Fatalf("GET via node %d: %d, identical=%v", i, resp.StatusCode, bytes.Equal(got, bodies[0]))
		}
		if metrics(t, n.url)("avtmor_store_roms") > 0 {
			stored++
		}
	}
	if stored != 1 {
		t.Fatalf("%d nodes persisted the artifact, want exactly the owner", stored)
	}

	// Simulation through a non-owner entry node is forwarded and
	// answered.
	entry := (owner + 1) % len(nodes)
	workload := `{"tEnd": 5, "steps": 100, "input": {"kind": "const", "values": [1]}}`
	resp, err := http.Post(nodes[entry].url+"/v1/roms/"+key+"/simulate", "application/json", strings.NewReader(workload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("forwarded simulate: %d: %s", resp.StatusCode, data)
	}
	var traj struct {
		T []float64 `json:"t"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.T) != 101 {
		t.Fatalf("forwarded simulate returned %d samples, want 101", len(traj.T))
	}
}

// TestClusterOwnerDownFallback: killing the owner must not surface a
// 5xx — an entry node that cannot reach the owner computes locally
// and still answers with the byte-identical artifact.
func TestClusterOwnerDownFallback(t *testing.T) {
	nodes := startCluster(t, 3)

	entry := 0
	ref, key := postReduce(t, nodes[entry].url, reducePath, clipper)
	owner := ownerIndex(t, nodes)
	if entry == owner {
		entry = 1
	}
	nodes[owner].kill(t)

	// Reduce through a surviving entry node: the forward fails fast,
	// the entry node degrades to computing the artifact itself, and
	// the client sees a clean 200 with the owner's exact bytes under
	// the same content address.
	got, gotKey := postReduce(t, nodes[entry].url, reducePath, clipper)
	if gotKey != key {
		t.Fatalf("fallback changed the content address: %s vs %s", gotKey, key)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("fallback reduced %d bytes under the owner's key, the owner served %d different ones", len(got), len(ref))
	}
	m := metrics(t, nodes[entry].url)
	if r := m("avtmor_reductions_total"); r != 1 {
		t.Fatalf("entry node reductions = %v, want 1 (local fallback compute)", r)
	}
	if fl := m("avtmor_cluster_fallback_local_total"); fl < 1 {
		t.Fatalf("local fallbacks = %v, want >= 1", fl)
	}
	if fe := m(peerSeries("avtmor_cluster_peer_forward_errors_total", nodes[owner].addr)); fe < 1 {
		t.Fatalf("dead owner produced %v forward errors, want >= 1", fe)
	}

	// The fallback copy now serves by-address requests on the entry
	// node too (local_hits, no forward attempt against the dead peer).
	resp, err := http.Get(nodes[entry].url + "/v1/roms/" + key)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(direct, got) {
		t.Fatalf("GET after fallback: %d, identical=%v", resp.StatusCode, bytes.Equal(direct, got))
	}
	if lh := metrics(t, nodes[entry].url)("avtmor_cluster_local_hits_total"); lh < 1 {
		t.Fatalf("local hits = %v, want >= 1", lh)
	}
}

// TestClusterLoopGuard: a request carrying X-Avtmor-Forwarded is
// served where it lands, even by a node that does not own the key —
// the guard that turns divergent ring views into one extra hop
// instead of a forwarding loop.
func TestClusterLoopGuard(t *testing.T) {
	nodes := startCluster(t, 2)

	// Find the non-owner without reducing: ask for a placement via a
	// real reduce, then aim the forged forwarded request at the other
	// node with a *different* circuit so its reduction is fresh.
	_, _ = postReduce(t, nodes[0].url, reducePath, clipper)
	owner := ownerIndex(t, nodes)
	nonOwner := 1 - owner

	variant := strings.Replace(clipper, "R2 n2 0 2.0", "R2 n2 0 3.0", 1)
	req, err := http.NewRequest("POST", nodes[nonOwner].url+reducePath, strings.NewReader(variant))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderForwarded, "test-forger")
	before := metrics(t, nodes[nonOwner].url)("avtmor_reductions_total")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: %d: %s", resp.StatusCode, data)
	}
	m := metrics(t, nodes[nonOwner].url)
	if r := m("avtmor_reductions_total"); r != before+1 {
		t.Fatalf("forwarded request did not reduce locally: %v reductions", r)
	}
	if m("avtmor_cluster_forwarded_serves_total") < 1 {
		t.Fatal("forwarded serve not counted")
	}
}

// TestServeDrainingHealthz: Drain flips /healthz to 503 "draining"
// (Close implies it) while the metrics gauge follows, so load
// balancers and ring peers can stop routing before the listener dies.
func TestServeDrainingHealthz(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	check := func(wantCode int, wantBody string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantCode || !strings.Contains(string(body), wantBody) {
			t.Fatalf("healthz: %d %q, want %d %q", resp.StatusCode, body, wantCode, wantBody)
		}
	}
	check(http.StatusOK, "ok")
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	s.Drain()
	if !s.Draining() {
		t.Fatal("Drain did not latch")
	}
	check(http.StatusServiceUnavailable, "draining")
	if d := metrics(t, ts.URL)("avtmor_draining"); d != 1 {
		t.Fatalf("draining gauge = %v, want 1", d)
	}
	// A draining node still serves traffic until the listener closes.
	if _, key := postReduce(t, ts.URL, reducePath, clipper); key == "" {
		t.Fatal("draining node refused work")
	}
	s.Close()
	check(http.StatusServiceUnavailable, "draining")
}

// TestClusterConfigValidation: a clustered Config must be coherent.
func TestClusterConfigValidation(t *testing.T) {
	if _, err := serve.New(serve.Config{Peers: []string{":1", ":2"}}); err == nil {
		t.Fatal("Peers without Node accepted")
	}
	if _, err := serve.New(serve.Config{Node: ":9", Peers: []string{":1", ":2"}}); err == nil {
		t.Fatal("Node outside Peers accepted")
	}
	if _, err := serve.New(serve.Config{Node: ":9"}); err == nil {
		t.Fatal("Node without Peers accepted")
	}
	s, err := serve.New(serve.Config{Node: ":8081", Peers: []string{":8081", "127.0.0.1:8082"}})
	if err != nil {
		t.Fatalf("normalized self entry rejected: %v", err)
	}
	s.Close()
}

// BenchmarkServeClusterForward measures the cluster tax: a reduce
// request entering at a non-owner node, forwarded one hop to the
// owner's hot in-memory cache, streamed back through the entry node.
// Compare with BenchmarkServeHTTPRoundTrip (the same hot hit without
// the extra hop). Recorded in BENCH_solver.json.
func BenchmarkServeClusterForward(b *testing.B) {
	nodes := startCluster(b, 2)
	body := fmt.Sprintf(clipperVar, 2.0)
	_, _ = postReduce(b, nodes[0].url, reducePath, body)
	owner := 0
	if metrics(b, nodes[1].url)("avtmor_reductions_total") > 0 {
		owner = 1
	}
	entry := nodes[1-owner]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(entry.url+reducePath, "text/plain", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// TestClusterBatchMultiOwner: a batch whose keys span several ring
// owners enters at one node, is split into per-owner sub-batches, and
// every item is reduced exactly once on its owner — then sequential
// submission of the same inputs through the *other* entry nodes yields
// byte-identical ROMs under identical content addresses, proving the
// batch and single-request paths interchangeable fleet-wide.
func TestClusterBatchMultiOwner(t *testing.T) {
	nodes := startCluster(t, 3)
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	ring := cluster.New(addrs, 0)
	params, err := url.ParseQuery("k1=2&k2=1&s0=0.4")
	if err != nil {
		t.Fatal(err)
	}
	req, err := query.Parse(params)
	if err != nil {
		t.Fatal(err)
	}

	// Generate distinct circuits until the batch provably spans at
	// least two owners (placement computed client-side, same ring).
	var bodies [][]byte
	ownedBy := map[string]int{} // node addr → item count
	for i := 0; (len(bodies) < 6 || len(ownedBy) < 2) && i < 200; i++ {
		body := []byte(fmt.Sprintf(clipperVar, 2.0+float64(i)*1e-3))
		sys, err := query.System(body)
		if err != nil {
			t.Fatal(err)
		}
		ownedBy[ring.Owner(store.Digest(req.Key(sys)))]++
		bodies = append(bodies, body)
	}
	if len(ownedBy) < 2 {
		t.Fatalf("could not build a multi-owner batch over %v", addrs)
	}
	unique := len(bodies)
	// A duplicate item rides along: same key, must coalesce, not
	// double-reduce.
	bodies = append(bodies, bodies[0])

	var frame bytes.Buffer
	if err := wire.WriteBatchRequest(&frame, bodies); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[0].url+"/v1/reduce/batch?k1=2&k2=1&s0=0.4", wire.BatchContentType, bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	results, err := wire.ReadBatchResponse(resp.Body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(bodies) {
		t.Fatalf("%d results for %d items", len(results), len(bodies))
	}
	for i, res := range results {
		if !res.OK() {
			t.Fatalf("item %d: %d %s", i, res.Status, res.Body)
		}
	}
	if !bytes.Equal(results[len(results)-1].Body, results[0].Body) || results[len(results)-1].Key != results[0].Key {
		t.Fatal("duplicate item diverged from its twin")
	}

	// Exactly one reduction per unique item, distributed to the owners
	// the client-side ring predicted.
	if total := totalReductions(t, nodes); total != float64(unique) {
		t.Fatalf("fleet performed %v reductions for %d unique items", total, unique)
	}
	for _, n := range nodes {
		got := metrics(t, n.url)("avtmor_reductions_total")
		if got != float64(ownedBy[n.addr]) {
			t.Fatalf("node %s reduced %v items, ring owns %d", n.addr, got, ownedBy[n.addr])
		}
	}

	// Sequential re-submission through the other entry nodes: identical
	// addresses and bytes, zero fresh reductions.
	for i := 0; i < unique; i++ {
		entry := nodes[1+i%2]
		seq, key := postReduce(t, entry.url, reducePath, string(bodies[i]))
		if key != results[i].Key {
			t.Fatalf("item %d: sequential key %s, batch key %s", i, key, results[i].Key)
		}
		if !bytes.Equal(seq, results[i].Body) {
			t.Fatalf("item %d: sequential bytes differ from batch bytes", i)
		}
	}
	if total := totalReductions(t, nodes); total != float64(unique) {
		t.Fatalf("sequential follow-ups re-reduced: %v", total)
	}
}
