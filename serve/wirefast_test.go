package serve_test

// Tests of the wire fast path (DESIGN.md §9): zero-copy conditional
// GET with the digest as a strong ETag, the batch reduce endpoint's
// per-item status semantics, and the hardened peer-forwarding
// transport against a stalling owner.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"avtmor/internal/cluster"
	"avtmor/internal/wire"
	"avtmor/serve"
)

// getROM issues a GET with optional If-None-Match and returns status,
// headers, body.
func getROM(t testing.TB, base, digest, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/roms/"+digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServeGetROMConditional: a by-address GET serves the store file
// with Content-Length, Content-Type, and the digest as a strong ETag;
// If-None-Match revalidation answers 304 with zero artifact parsing
// (the store's Loads counter must not move); a file corrupted behind
// the store's back is quarantined and reported 404, never served.
func TestServeGetROMConditional(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{StoreDir: t.TempDir()})
	ref, key := postReduce(t, ts.URL, reducePath, clipper)

	// Unconditional GET: raw store bytes with full headers.
	resp, body := getROM(t, ts.URL, key, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Fatal("GET served different bytes than the reduce response")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(ref)) {
		t.Fatalf("Content-Length = %q, want %d", cl, len(ref))
	}
	wantETag := `"` + key + `"`
	if et := resp.Header.Get("ETag"); et != wantETag {
		t.Fatalf("ETag = %q, want %q", et, wantETag)
	}
	m := metrics(t, ts.URL)
	if raw := m("avtmor_store_raw_opens_total"); raw < 1 {
		t.Fatalf("store raw opens = %v, want >= 1 (zero-copy path not taken)", raw)
	}

	// Revalidation: 304, empty body, and — the acceptance criterion —
	// zero store Loads on the conditional path.
	loadsBefore := m("avtmor_store_loads_total")
	rawBefore := m("avtmor_store_raw_opens_total")
	resp, body = getROM(t, ts.URL, key, wantETag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body))
	}
	if et := resp.Header.Get("ETag"); et != wantETag {
		t.Fatalf("304 ETag = %q, want %q", et, wantETag)
	}
	m = metrics(t, ts.URL)
	if loads := m("avtmor_store_loads_total"); loads != loadsBefore {
		t.Fatalf("304 path parsed the artifact: store loads %v -> %v", loadsBefore, loads)
	}
	if raw := m("avtmor_store_raw_opens_total"); raw != rawBefore {
		t.Fatalf("304 path opened the file: store raw opens %v -> %v", rawBefore, raw)
	}

	// The weak form and an etag list revalidate too.
	if resp, _ := getROM(t, ts.URL, key, `"zzz", W/`+wantETag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak/list If-None-Match: %d, want 304", resp.StatusCode)
	}
	// A stale etag for the same address refetches the body.
	if resp, body := getROM(t, ts.URL, key, `"0000"`); resp.StatusCode != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("mismatched If-None-Match: %d, identical=%v", resp.StatusCode, bytes.Equal(body, ref))
	}

	// Miss: honest 404 with an error Content-Length.
	bogus := strings.Repeat("ab", 32)
	resp, _ = getROM(t, ts.URL, bogus, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown address: %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("Content-Length") == "" {
		t.Fatal("404 carries no Content-Length")
	}
}

// TestServeGetROMCorruptFile: corruption that lands after the store's
// open-time scan (truncation/zeroing behind the store's back) is caught
// by the raw path's magic sniff — quarantined and answered 404, so the
// client re-reduces instead of parsing garbage.
func TestServeGetROMCorruptFile(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, serve.Config{StoreDir: dir})
	_, key := postReduce(t, ts.URL, reducePath, clipper)

	path := dir + "/" + key + ".rom"
	if err := writeFileHead(path, []byte("GARBAGE!")); err != nil {
		t.Fatal(err)
	}
	resp, body := getROM(t, ts.URL, key, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupted artifact: %d: %s, want 404", resp.StatusCode, body)
	}
	if q := metrics(t, ts.URL)("avtmor_store_quarantined"); q != 1 {
		t.Fatalf("store quarantined = %v, want 1", q)
	}
}

// writeFileHead overwrites the first bytes of a file in place —
// corruption landing behind the store's back.
func writeFileHead(path string, head []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(head, 0)
	return err
}

// TestServeBatchReduce: a batch of N bodies answers one frame with
// per-item results in order; a bad item fails alone (per-item 400)
// while the rest succeed; reductions stay minimal; and batched output
// is byte-identical — same content addresses, same ROM bytes — to
// sequential submission of the same inputs.
func TestServeBatchReduce(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{StoreDir: t.TempDir()})

	good1 := fmt.Sprintf(clipperVar, 2.0)
	good2 := fmt.Sprintf(clipperVar, 3.0)
	bad := "R1 notanode\n"
	var frame bytes.Buffer
	if err := wire.WriteBatchRequest(&frame, [][]byte{[]byte(good1), []byte(bad), []byte(good2)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/reduce/batch?k1=2&k2=1&s0=0.4", wire.BatchContentType, bytes.NewReader(frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.BatchContentType {
		t.Fatalf("batch Content-Type = %q", ct)
	}
	if resp.Header.Get("Content-Length") == "" {
		t.Fatal("batch response carries no Content-Length")
	}
	results, err := wire.ReadBatchResponse(resp.Body, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if !results[0].OK() || !results[2].OK() {
		t.Fatalf("good items failed: %d / %d", results[0].Status, results[2].Status)
	}
	if results[1].Status != http.StatusBadRequest || !strings.Contains(string(results[1].Body), "parsing system") {
		t.Fatalf("bad item: %d %q, want per-item 400", results[1].Status, results[1].Body)
	}
	if results[1].Key != "" {
		t.Fatalf("unparsable item got a content address %q", results[1].Key)
	}

	m := metrics(t, ts.URL)
	if r := m("avtmor_reductions_total"); r != 2 {
		t.Fatalf("reductions = %v, want 2 (one per good item)", r)
	}
	if br, bi := m("avtmor_batch_total"), m("avtmor_batch_items_total"); br != 1 || bi != 3 {
		t.Fatalf("batch counters: requests=%v items=%v", br, bi)
	}

	// Sequential submission of the same inputs: identical addresses,
	// identical bytes (served from the tiers the batch populated — no
	// re-reduction), so batch and single paths are interchangeable.
	seq1, key1 := postReduce(t, ts.URL, reducePath, good1)
	seq2, key2 := postReduce(t, ts.URL, reducePath, good2)
	if key1 != results[0].Key || key2 != results[2].Key {
		t.Fatalf("sequential keys (%s, %s) differ from batch keys (%s, %s)", key1, key2, results[0].Key, results[2].Key)
	}
	if !bytes.Equal(seq1, results[0].Body) || !bytes.Equal(seq2, results[2].Body) {
		t.Fatal("sequential ROM bytes differ from batch ROM bytes")
	}
	if r := metrics(t, ts.URL)("avtmor_reductions_total"); r != 2 {
		t.Fatalf("sequential follow-up re-reduced: %v reductions", r)
	}

	// Malformed frames are a whole-request 400, not a hang.
	resp2, err := http.Post(ts.URL+"/v1/reduce/batch", wire.BatchContentType, strings.NewReader("not a batch"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: %d, want 400", resp2.StatusCode)
	}
}

// TestClusterStallingPeer: an owner that accepts connections but never
// answers must not pin the relay until the request deadline — the
// hardened transport's ResponseHeaderTimeout fires and the entry node
// falls back to local service.
func TestClusterStallingPeer(t *testing.T) {
	// A fake peer that accepts and then goes silent.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	go func() {
		for {
			conn, err := stall.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, never respond
		}
	}()
	stallAddr := stall.Addr().String()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s, err := serve.New(serve.Config{
		StoreDir:          t.TempDir(),
		Node:              addr,
		Peers:             []string{addr, stallAddr},
		PeerHeaderTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); s.Close() })

	// Find a digest the ring places on the stalling peer.
	ring := cluster.New([]string{addr, stallAddr}, 0)
	digest := ""
	for i := 0; i < 1000; i++ {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		d := hex.EncodeToString(sum[:])
		if ring.Owner(d) == cluster.Normalize(stallAddr) {
			digest = d
			break
		}
	}
	if digest == "" {
		t.Fatal("no digest landed on the stalling peer")
	}

	start := time.Now()
	resp, _ := getROM(t, "http://"+addr, digest, "")
	elapsed := time.Since(start)
	// The relay gave up at the header timeout and the local lookup
	// answered the honest 404 — quickly, not at some distant deadline.
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET through stalled owner: %d, want 404 fallback", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("fallback took %v; the stalled owner pinned the relay", elapsed)
	}
	m := metrics(t, "http://"+addr)
	if fe := m(peerSeries("avtmor_cluster_peer_forward_errors_total", cluster.Normalize(stallAddr))); fe < 1 {
		t.Fatalf("stalled owner produced %v forward errors, want >= 1", fe)
	}
	if fl := m("avtmor_cluster_fallback_local_total"); fl < 1 {
		t.Fatalf("local fallbacks = %v, want >= 1", fl)
	}
}
