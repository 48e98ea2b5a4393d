package serve

// Internal tests of the one peer call, peerDo: every node-to-node
// request carries the forwarding marker, the epoch and the caller's
// request ID, whichever operation sends it, and the receiving side acts
// on them (epoch refresh, request-ID continuity in the access log).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"avtmor"
	"avtmor/internal/query"
	"avtmor/internal/replica"
	"avtmor/internal/store"
	"avtmor/internal/wire"
)

// peerLadder is a two-node diode ladder small enough to reduce in
// milliseconds.
const peerLadder = "I1 0 n1 IN0 1\nC1 n1 0 1\nR1 n1 0 2\nD1 n1 0 1 0.05\nR12 n1 n2 1\nC2 n2 0 1\nR2 n2 0 2\n.out n2\n"

// romBytes reduces peerLadder and returns the artifact bytes.
func romBytes(t *testing.T) []byte {
	t.Helper()
	sys, err := avtmor.ParseNetlist(strings.NewReader(peerLadder))
	if err != nil {
		t.Fatal(err)
	}
	rom, err := avtmor.Reduce(context.Background(), sys, avtmor.WithOrders(2, 1, 0), avtmor.WithExpansion(0.4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPeerRequestsCarryHeaders sends each of the eight peer operations
// to a recording fake peer and checks that every request carries
// X-Avtmor-Forwarded (this node), X-Avtmor-Epoch and the caller's
// request ID.
func TestPeerRequestsCarryHeaders(t *testing.T) {
	raw := romBytes(t)
	var (
		mu   sync.Mutex
		seen []*http.Request
	)
	const self = "127.0.0.1:1"
	var peerAddr string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen = append(seen, r)
		mu.Unlock()
		w.Header().Set(HeaderEpoch, "1")
		ms := replica.Membership{Epoch: 1, Replicas: 1, Peers: []string{self, peerAddr}}
		switch {
		case r.URL.Path == "/v1/reduce":
			w.Write(raw)
		case r.URL.Path == "/v1/reduce/batch":
			items, err := wire.ReadBatchRequest(bytes.NewReader(body), 1<<20)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			res := make([]wire.Result, len(items))
			for i := range res {
				res[i] = wire.Result{Status: http.StatusOK, Body: raw}
			}
			wire.WriteBatchResponse(w, res)
		case strings.HasPrefix(r.URL.Path, "/v1/cluster/roms/"):
			w.WriteHeader(http.StatusNoContent)
		case strings.HasPrefix(r.URL.Path, "/v1/roms/"):
			w.Write(raw)
		case r.URL.Path == "/v1/cluster/keys":
			replica.WriteKeyList(w, nil)
		default: // membership GET/POST, join
			replica.EncodeMembership(w, ms)
		}
	}))
	defer peer.Close()
	peerAddr = strings.TrimPrefix(peer.URL, "http://")

	s, err := New(Config{Node: self, Peers: []string{self, peerAddr}, AntiEntropyInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const rid = "peer-ops-rid"
	ctx := context.WithValue(context.Background(), ridKey{}, rid)
	digest := strings.Repeat("ab", 32)
	ops := map[string]func() error{
		"relay": func() error {
			r := httptest.NewRequest(http.MethodPost, "/v1/reduce?k1=2", strings.NewReader(peerLadder)).WithContext(ctx)
			if !s.relay(httptest.NewRecorder(), r, peerAddr, []byte(peerLadder)) {
				return io.ErrUnexpectedEOF
			}
			return nil
		},
		"relayBatch": func() error {
			_, err := s.relayBatch(ctx, peerAddr, "k1=2", [][]byte{[]byte(peerLadder)})
			return err
		},
		"putReplica": func() error { return s.putReplica(ctx, peerAddr, digest, raw) },
		"broadcastMembership": func() error {
			s.broadcastMembership(ctx, replica.Membership{Epoch: 2, Replicas: 1, Peers: []string{self, peerAddr}}, "")
			s.repWG.Wait()
			return nil
		},
		"transitionVia": func() error { _, err := s.transitionVia(ctx, peerAddr, "join"); return err },
		"Keys":          func() error { _, _, err := peerOps{s}.Keys(ctx, peerAddr, self); return err },
		"Pull":          func() error { return peerOps{s}.Pull(ctx, peerAddr, digest) },
		"Membership":    func() error { _, err := peerOps{s}.Membership(ctx, peerAddr); return err },
	}
	for name, op := range ops {
		mu.Lock()
		before := len(seen)
		mu.Unlock()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		got := seen[before:]
		mu.Unlock()
		if len(got) == 0 {
			t.Fatalf("%s sent no request", name)
		}
		for _, r := range got {
			if r.Header.Get(HeaderForwarded) != self || r.Header.Get(HeaderEpoch) != "1" || r.Header.Get(HeaderRequestID) != rid {
				t.Errorf("%s: %s %s carries forwarded %q, epoch %q, request ID %q; want %q, 1, %q",
					name, r.Method, r.URL.Path, r.Header.Get(HeaderForwarded), r.Header.Get(HeaderEpoch),
					r.Header.Get(HeaderRequestID), self, rid)
			}
		}
	}
}

// fleetNode is one listening Server of an in-process fleet.
type fleetNode struct {
	s    *Server
	url  string
	log  *bytes.Buffer
	mu   *sync.Mutex
	hits map[string]int // requests by "METHOD path", counted on arrival; under mu
}

// accessLog is an io.Writer safe for the server's serialized writes and
// the test's reads.
type accessLog struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (l accessLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// startFleet boots n stored, replicated (R = n) nodes without
// anti-entropy sweeps, each with an access log and a count of the
// requests it receives.
func startFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		node := &fleetNode{url: "http://" + addrs[i], log: &bytes.Buffer{}, mu: &sync.Mutex{}, hits: map[string]int{}}
		s, err := New(Config{
			StoreDir: t.TempDir(), Node: addrs[i], Peers: addrs, Replicas: n,
			AntiEntropyInterval: -1, AccessLog: accessLog{node.mu, node.log},
		})
		if err != nil {
			t.Fatal(err)
		}
		node.s = s
		h := s.Handler()
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.mu.Lock()
			node.hits[r.Method+" "+r.URL.Path]++
			node.mu.Unlock()
			h.ServeHTTP(w, r)
		})}
		go srv.Serve(lns[i])
		t.Cleanup(func() {
			srv.Close()
			s.Close()
		})
		nodes[i] = node
	}
	return nodes
}

// loggedIDs returns the request IDs of the node's access-log lines for
// the given method and path.
func (n *fleetNode) loggedIDs(t *testing.T, method, path string) []string {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	var ids []string
	for _, line := range strings.Split(n.log.String(), "\n") {
		if line == "" {
			continue
		}
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Method == method && rec.Path == path {
			ids = append(ids, rec.RequestID)
		}
	}
	return ids
}

// received returns how many method requests for path n has received.
func (n *fleetNode) received(method, path string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hits[method+" "+path]
}

// TestMembershipPushNotesNoEpoch: a join's membership broadcast
// carries the sender's newer epoch beside X-Avtmor-Forwarded, but its
// body is the view itself. The receivers adopt it without counting an
// epoch mismatch, and without fetching the view back from the sender.
// Each answers with the epoch it applied, so the sender counts none
// either.
func TestMembershipPushNotesNoEpoch(t *testing.T) {
	nodes := startFleet(t, 3)
	seed := nodes[0].s.cluster.self
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	joiner, err := New(Config{StoreDir: t.TempDir(), Node: addr, Peers: []string{addr, seed}, Replicas: 3, AntiEntropyInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: joiner.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		joiner.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.Join(ctx, seed); err != nil {
		t.Fatal(err)
	}
	// The broadcast goroutines were started before the join answered, and
	// a receiver starts any refresh before it answers the push.
	nodes[0].s.repWG.Wait()
	for _, n := range nodes[1:] {
		n.s.repWG.Wait()
		if e := n.s.cluster.state.Epoch(); e != 2 {
			t.Fatalf("%s is at epoch %d after the broadcast, want 2", n.s.cluster.self, e)
		}
		if got := n.received(http.MethodPost, "/v1/cluster/membership"); got != 1 {
			t.Fatalf("%s received %d membership pushes, want 1", n.s.cluster.self, got)
		}
		if m := n.s.cluster.epochMismatches.Value(); m != 0 {
			t.Fatalf("%s counted %d epoch mismatches on the push that carried the view", n.s.cluster.self, m)
		}
	}
	for _, n := range nodes {
		if got := n.received(http.MethodGet, "/v1/cluster/membership"); got != 0 {
			t.Fatalf("%s served %d membership GETs; the push already carried the view", n.s.cluster.self, got)
		}
	}
	if m := nodes[0].s.cluster.epochMismatches.Value(); m != 0 {
		t.Fatalf("the sender counted %d epoch mismatches on the answers to its pushes", m)
	}
}

// TestReplicaPutNewerEpochRefreshes: a replica PUT from a node whose
// membership is ahead makes the receiver count an epoch mismatch and
// refresh its view from the sender.
func TestReplicaPutNewerEpochRefreshes(t *testing.T) {
	nodes := startFleet(t, 2)
	a, b := nodes[0].s, nodes[1].s
	a.cluster.state.Join("127.0.0.1:9") // a's view moves to epoch 2; b stays at 1
	if a.cluster.state.Epoch() != 2 || b.cluster.state.Epoch() != 1 {
		t.Fatalf("epochs %d and %d, want 2 and 1", a.cluster.state.Epoch(), b.cluster.state.Epoch())
	}
	raw := romBytes(t)
	if err := a.putReplica(context.Background(), b.cluster.self, strings.Repeat("cd", 32), raw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.cluster.state.Epoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("receiver stayed at epoch %d after a PUT from epoch 2 (mismatches %d)",
				b.cluster.state.Epoch(), b.cluster.epochMismatches.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b.cluster.epochMismatches.Value() < 1 {
		t.Fatal("receiver refreshed without counting the epoch mismatch")
	}
}

// TestReadRepairKeepsRequestID: a GET that read-repairs a missing copy
// from its co-replica carries the GET's request ID to the co-replica's
// access log.
func TestReadRepairKeepsRequestID(t *testing.T) {
	nodes := startFleet(t, 2)
	a, b := nodes[0], nodes[1]
	req, err := query.Parse(map[string][]string{"k1": {"2"}, "k2": {"1"}, "s0": {"0.4"}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := query.System([]byte(peerLadder))
	if err != nil {
		t.Fatal(err)
	}
	digest := store.Digest(req.Key(sys))
	resp, err := http.Post(a.url+"/v1/reduce?k1=2&k2=1&s0=0.4", "text/plain", strings.NewReader(peerLadder))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Avtmor-Rom-Key") != digest {
		t.Fatalf("reduce: %d, key %q, want 200 and %s", resp.StatusCode, resp.Header.Get("X-Avtmor-Rom-Key"), digest)
	}
	a.s.repWG.Wait() // the write-through push to b has landed
	if !b.s.hasLocal(digest) {
		t.Fatal("the co-replica holds no copy after the write-through push")
	}
	if err := a.s.st.Remove(digest); err != nil {
		t.Fatal(err)
	}

	const rid = "read-repair-rid"
	get, err := http.NewRequest(http.MethodGet, a.url+"/v1/roms/"+digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	get.Header.Set(HeaderRequestID, rid)
	resp, err = http.DefaultClient.Do(get)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after losing the local copy: %d", resp.StatusCode)
	}
	if n := a.s.cluster.readRepairs.Value(); n != 1 {
		t.Fatalf("%d read repairs, want 1", n)
	}
	ids := b.loggedIDs(t, http.MethodGet, "/v1/roms/"+digest)
	if len(ids) != 1 || ids[0] != rid {
		t.Fatalf("co-replica logged the pull under request IDs %v, want [%s]", ids, rid)
	}
}

// TestReadRepairDoesNotBounce: a GET for an address that neither of two
// co-replicas holds is a prompt 404. Each replica's pull must not make
// the other one read-repair in turn, or the two would pull from each
// other until the caller gives up.
func TestReadRepairDoesNotBounce(t *testing.T) {
	nodes := startFleet(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nodes[0].url+"/v1/roms/"+strings.Repeat("ef", 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET of an absent address: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of an absent address: %d, want 404", resp.StatusCode)
	}
	if n := nodes[1].s.cluster.forwardedServes.Value(); n != 1 {
		t.Fatalf("the co-replica served %d pulls, want 1", n)
	}
	if n := nodes[0].s.cluster.forwardedServes.Value(); n != 0 {
		t.Fatalf("the entry node served %d pulls back, want 0", n)
	}
}
