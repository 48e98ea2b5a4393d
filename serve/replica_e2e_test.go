package serve_test

// E2E tests of the replicated cluster tier: real servers, real TCP,
// R > 1 placement, write-through, read availability under a dead
// primary, anti-entropy convergence of a late joiner, orphan handoff,
// and epoch-based join/leave — the assertions behind DESIGN.md §11.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"net/url"

	"avtmor/avtmorclient"
	"avtmor/internal/cluster"
	"avtmor/internal/query"
	"avtmor/internal/replica"
	"avtmor/internal/store"
	"avtmor/serve"
)

// startReplicated boots n nodes with replication factor r and the
// given anti-entropy interval (negative disables sweeping).
func startReplicated(t testing.TB, n, r int, sweep time.Duration) []*clusterNode {
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
		s, err := serve.New(serve.Config{
			StoreDir:            t.TempDir(),
			Node:                addrs[i],
			Peers:               addrs,
			Replicas:            r,
			AntiEntropyInterval: sweep,
		})
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

// joinNode boots one extra node that enters the fleet through seed via
// the dynamic-membership handshake.
func joinNode(t testing.TB, seed string, r int, sweep time.Duration) *clusterNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s, err := serve.New(serve.Config{
		StoreDir:            t.TempDir(),
		Node:                addr,
		Peers:               []string{addr, seed},
		Replicas:            r,
		AntiEntropyInterval: sweep,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := &clusterNode{
		s:    s,
		srv:  &http.Server{Handler: s.Handler()},
		addr: addr,
		url:  "http://" + addr,
	}
	go node.srv.Serve(ln)
	t.Cleanup(func() { node.kill(t) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Join(ctx, seed); err != nil {
		t.Fatalf("joining via %s: %v", seed, err)
	}
	return node
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// nodeKeys fetches the digests node holds for shard over the
// anti-entropy wire endpoint.
func nodeKeys(t testing.TB, nodeURL, shard string) []string {
	t.Helper()
	resp, err := http.Get(nodeURL + "/v1/cluster/keys?shard=" + shard)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("keys: %d: %s", resp.StatusCode, data)
	}
	keys, err := replica.ReadKeyList(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func hasKey(keys []string, digest string) bool {
	for _, k := range keys {
		if k == digest {
			return true
		}
	}
	return false
}

// TestReplicatedWriteAndFailover is the tentpole acceptance test: on a
// 3-node R=2 fleet one reduction yields two copies, and killing the
// primary leaves every artifact readable byte-identically from the
// surviving replica with zero recomputes.
func TestReplicatedWriteAndFailover(t *testing.T) {
	// Anti-entropy disabled: the second copy must come from the
	// synchronous-write/async-push write-through path alone.
	nodes := startReplicated(t, 3, 2, -1)
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}
	ring := cluster.New(addrs, 0)

	ref, key := postReduce(t, nodes[0].url, reducePath, clipper)
	owners := ring.Owners(key, 2)
	idx := map[string]int{}
	for i, a := range addrs {
		idx[a] = i
	}
	primary, follower := nodes[idx[owners[0]]], nodes[idx[owners[1]]]

	// One replica reduced synchronously (whichever of the two the
	// request landed on); the other's copy arrives on the async
	// write-through push. Both owners — and nobody else — must end up
	// holding the artifact.
	waitFor(t, 5*time.Second, "write-through to both replicas", func() bool {
		return metrics(t, primary.url)("avtmor_store_roms") == 1 &&
			metrics(t, follower.url)("avtmor_store_roms") == 1
	})
	for _, n := range nodes {
		if n == primary || n == follower {
			continue
		}
		if got := metrics(t, n.url)("avtmor_store_roms"); got != 0 {
			t.Fatalf("non-replica %s persisted %v artifacts", n.addr, got)
		}
	}
	writes := metrics(t, primary.url)("avtmor_cluster_replica_writes_total") +
		metrics(t, follower.url)("avtmor_cluster_replica_writes_total")
	if writes != 1 {
		t.Fatalf("replica writes across the owners = %v, want exactly 1 (one pushed copy)", writes)
	}
	if total := totalReductions(t, nodes); total != 1 {
		t.Fatalf("fleet reductions = %v, want exactly 1", total)
	}

	// Kill the primary. Every survivor must still serve the exact
	// bytes — the follower locally, the non-replica by walking the
	// replica set past the dead primary — without any recompute.
	before := map[string]float64{}
	for _, n := range nodes {
		if n != primary {
			before[n.addr] = metrics(t, n.url)("avtmor_reductions_total")
		}
	}
	primary.kill(t)
	for _, n := range nodes {
		if n == primary {
			continue
		}
		resp, err := http.Get(n.url + "/v1/roms/" + key)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET via %s after primary death: %d", n.addr, resp.StatusCode)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("GET via %s returned different bytes after primary death", n.addr)
		}
	}
	for _, n := range nodes {
		if n == primary {
			continue
		}
		if got := metrics(t, n.url)("avtmor_reductions_total"); got != before[n.addr] {
			t.Fatalf("node %s recomputed after primary death (%v -> %v)", n.addr, before[n.addr], got)
		}
	}
}

// TestAntiEntropyLateJoiner: a node joining a loaded fleet converges
// to exactly the key set the new ring assigns it, by pulling — never
// recomputing — and the whole fleet adopts the bumped epoch.
func TestAntiEntropyLateJoiner(t *testing.T) {
	nodes := startReplicated(t, 3, 2, 40*time.Millisecond)

	var keys []string
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(clipperVar, 2.0+float64(i)*1e-3)
		_, key := postReduce(t, nodes[i%3].url, reducePath, body)
		keys = append(keys, key)
	}

	d := joinNode(t, nodes[0].addr, 2, 40*time.Millisecond)
	for _, n := range nodes {
		n := n
		waitFor(t, 5*time.Second, "epoch propagation to "+n.addr, func() bool {
			m := metrics(t, n.url)
			return m("avtmor_cluster_epoch") == 2 && m("avtmor_cluster_nodes") == 4
		})
	}

	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr, d.addr}
	ring := cluster.New(addrs, 0)
	var owned []string
	for _, k := range keys {
		owners := ring.Owners(k, 2)
		if owners[0] == d.addr || owners[1] == d.addr {
			owned = append(owned, k)
		}
	}
	if len(owned) == 0 {
		t.Skip("ring assigned the joiner none of the test keys (hash-dependent); nothing to converge")
	}

	waitFor(t, 10*time.Second, "late joiner convergence", func() bool {
		got := nodeKeys(t, d.url, d.addr)
		if len(got) != len(owned) {
			return false
		}
		for _, k := range owned {
			if !hasKey(got, k) {
				return false
			}
		}
		return true
	})
	m := metrics(t, d.url)
	if got := m("avtmor_reductions_total"); got != 0 {
		t.Fatalf("joiner recomputed %v artifacts instead of pulling", got)
	}
	if pulls := m("avtmor_cluster_anti_entropy_pulls_total"); pulls < float64(len(owned)) {
		t.Fatalf("anti-entropy pulls = %v, want >= %d", pulls, len(owned))
	}
	// Pulled copies are the owners' exact bytes: a GET served by the
	// joiner matches a GET served by an original owner.
	for _, k := range owned {
		viaD, _ := fetchROM(t, d.url, k)
		viaOld, _ := fetchROM(t, nodes[0].url, k)
		if !bytes.Equal(viaD, viaOld) {
			t.Fatalf("joiner's copy of %s differs from the fleet's", k)
		}
	}
}

// fetchROM fetches an artifact by content address.
func fetchROM(t testing.TB, base, digest string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/roms/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return data, resp.StatusCode
}

// TestOrphanHandoff: an artifact that lands on a non-replica (here via
// a forged forwarded request, the same shape an owner-down fallback
// leaves behind) is tagged, handed to its real owner by the sweeper,
// and then dropped locally — the fix for the orphaned-fallback leak.
func TestOrphanHandoff(t *testing.T) {
	nodes := startReplicated(t, 3, 1, 40*time.Millisecond)
	addrs := []string{nodes[0].addr, nodes[1].addr, nodes[2].addr}
	ring := cluster.New(addrs, 0)

	// Aim a forwarded-tagged reduce at a node that does not own the
	// key: the loop guard makes it compute and store locally, and the
	// write-through path must tag the copy as an orphan.
	_, probe := postReduce(t, nodes[0].url, reducePath, clipper)
	_ = probe
	variant := fmt.Sprintf(clipperVar, 7.25)
	var nonOwner, owner *clusterNode
	var key string
	for i := 0; i < 50; i++ {
		body := fmt.Sprintf(clipperVar, 7.25+float64(i)*1e-3)
		sysKey := reduceDigest(t, body)
		own := ring.Owner(sysKey)
		for _, n := range nodes {
			if n.addr != own {
				nonOwner = n
				variant = body
				key = sysKey
				break
			}
		}
		if nonOwner != nil {
			for _, n := range nodes {
				if n.addr == own {
					owner = n
				}
			}
			break
		}
	}
	req, err := http.NewRequest("POST", nonOwner.url+reducePath, strings.NewReader(variant))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderForwarded, "test-forger")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forged forwarded reduce: %d", resp.StatusCode)
	}
	if got := metrics(t, nonOwner.url)("avtmor_cluster_orphans_marked_total"); got != 1 {
		t.Fatalf("orphans marked = %v, want 1", got)
	}

	// The sweeper hands the copy to the owner and drops it here. The
	// owner may also pull the copy through its own anti-entropy sweep
	// first (the orphan is listed under the owner's shard), so the
	// handoff counter is part of the convergence condition, not a
	// post-hoc assertion.
	waitFor(t, 10*time.Second, "orphan handoff", func() bool {
		return hasKey(nodeKeys(t, owner.url, owner.addr), key) &&
			!hasKey(nodeKeys(t, nonOwner.url, nonOwner.addr), key) &&
			metrics(t, nonOwner.url)("avtmor_cluster_orphan_handoffs_total") >= 1
	})
	// The artifact stayed reachable throughout — and still is, from
	// anywhere.
	if _, code := fetchROM(t, nonOwner.url, key); code != http.StatusOK {
		t.Fatalf("GET after handoff: %d", code)
	}
}

// reduceDigest computes the content address the fleet will assign a
// reduce body under the test's fixed query parameters — the same
// client-side placement computation avtmorclient runs.
func reduceDigest(t testing.TB, body string) string {
	t.Helper()
	params, err := url.ParseQuery("k1=2&k2=1&s0=0.4")
	if err != nil {
		t.Fatal(err)
	}
	req, err := query.Parse(params)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := query.System([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return store.Digest(req.Key(sys))
}

// reduceParams is the parsed form of reducePath's query string.
func reduceParams(t testing.TB) url.Values {
	t.Helper()
	params, err := url.ParseQuery("k1=2&k2=1&s0=0.4")
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// TestEpochJoinLeave: join bumps the fleet epoch and spreads the new
// membership everywhere; a graceful leave bumps it again and shrinks
// the view, and a stale client re-syncs off the epoch header instead
// of dialing by a dead map.
func TestEpochJoinLeave(t *testing.T) {
	nodes := startReplicated(t, 2, 1, 40*time.Millisecond)

	// A client built on the initial 2-node view adopts epoch 1 on first
	// contact.
	c, err := avtmorclient.New(avtmorclient.Config{Nodes: []string{nodes[0].addr, nodes[1].addr}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Reduce(ctx, []byte(clipper), reduceParams(t)); err != nil {
		t.Fatal(err)
	}

	d := joinNode(t, nodes[0].addr, 1, 40*time.Millisecond)
	for _, n := range nodes {
		n := n
		waitFor(t, 5*time.Second, "join epoch on "+n.addr, func() bool {
			m := metrics(t, n.url)
			return m("avtmor_cluster_epoch") == 2 && m("avtmor_cluster_nodes") == 3
		})
	}

	// The next request's response carries epoch 2; the client notices
	// and refreshes its membership to the 3-node view.
	if _, err := c.Reduce(ctx, []byte(fmt.Sprintf(clipperVar, 3.5)), reduceParams(t)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().EpochRefreshes; got < 1 {
		t.Fatalf("client EpochRefreshes = %d, want >= 1", got)
	}
	if got := c.Nodes(); len(got) != 3 {
		t.Fatalf("client view after refresh = %v, want 3 nodes", got)
	}

	// Graceful leave: epoch 3, the survivors' view shrinks back.
	if err := d.s.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n := n
		waitFor(t, 5*time.Second, "leave epoch on "+n.addr, func() bool {
			m := metrics(t, n.url)
			return m("avtmor_cluster_epoch") == 3 && m("avtmor_cluster_nodes") == 2
		})
	}
}

// BenchmarkServeReduceReplicated measures the replicated write path on
// a 2-node R=2 fleet: every iteration reduces a distinct circuit on
// its primary (synchronous) and write-through pushes the copy to the
// follower (asynchronous, off the request's critical path). Compare
// with BenchmarkServeReduceDistinct for the replication tax. Recorded
// in BENCH_solver.json.
func BenchmarkServeReduceReplicated(b *testing.B) {
	nodes := startReplicated(b, 2, 2, -1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(clipperVar, 2.0+float64(i+1)*1e-6)
		resp, err := http.Post(nodes[0].url+reducePath, "text/plain", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
