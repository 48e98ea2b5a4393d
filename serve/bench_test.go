package serve_test

// Service-tier benchmarks, recorded in BENCH_solver.json. Regenerate:
//
//	go test -run XXX -bench 'BenchmarkServeReduce(Cold|StoreHit)|BenchmarkServeHTTPRoundTrip' \
//	    -benchtime 100x ./serve/
//
// Cold pays a full reduction of a fresh 3-state clipper variant per
// request (handler only, no sockets); StoreHit alternates two keys
// through a 1-entry memory cache so every request reloads its artifact
// from disk; HTTPRoundTrip hammers the memory-cached hot path through
// a real TCP listener, measuring the wire overhead of the serving
// tier.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"avtmor/avtmorclient"
	"avtmor/internal/wire"
	"avtmor/serve"
)

// clipperVar is the test circuit with one load resistor left open for
// per-iteration variation (distinct fingerprint → cold request).
const clipperVar = `
I1 0 n1 IN0 1.0
C1 n1 0 1.0
R1 n1 0 %.9f
D1 n1 0 1.0 0.05
R12 n1 n2 1.0
C2 n2 0 1.0
R2 n2 0 2.0
.out n2
`

func benchPost(b *testing.B, h http.Handler, path, body string) *httptest.ResponseRecorder {
	b.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		b.Fatalf("POST %s: %d: %s", path, rr.Code, rr.Body.String())
	}
	return rr
}

func BenchmarkServeReduceCold(b *testing.B) {
	s, err := serve.New(serve.Config{StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(clipperVar, 2.0+float64(i+1)*1e-6)
		benchPost(b, h, reducePath, body)
	}
}

func BenchmarkServeReduceStoreHit(b *testing.B) {
	s, err := serve.New(serve.Config{StoreDir: b.TempDir(), CacheLimit: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	bodies := []string{
		fmt.Sprintf(clipperVar, 2.0),
		fmt.Sprintf(clipperVar, 3.0),
	}
	for _, body := range bodies {
		benchPost(b, h, reducePath, body)
	}
	b.ResetTimer()
	// With a 1-entry cache, alternating keys makes every request an
	// in-memory miss answered by the on-disk store.
	for i := 0; i < b.N; i++ {
		benchPost(b, h, reducePath, bodies[i%2])
	}
}

func BenchmarkServeHTTPRoundTrip(b *testing.B) {
	s, err := serve.New(serve.Config{StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := fmt.Sprintf(clipperVar, 2.0)
	do := func() {
		resp, err := http.Post(ts.URL+reducePath, "text/plain", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		// Drain so the transport can reuse the connection.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
	}
	do() // warm the cache: the loop measures the hot serving path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// BenchmarkServeBatch measures POST /v1/reduce/batch over real TCP
// with n distinct pre-warmed (in-memory cache hit) netlists per
// request — the same workload BenchmarkServeHTTPRoundTrip pays one
// round trip *per netlist* for. ns/op is the whole batch; the
// ns/netlist metric is the per-item cost, directly comparable to
// HTTPRoundTrip's ns/op. On this host a single CPU serializes the
// reductions anyway, so the win is pure wire amortization: one
// connection acquisition, one header parse, one routing decision for
// n artifacts.
func BenchmarkServeBatch(b *testing.B) {
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := serve.New(serve.Config{StoreDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			bodies := make([][]byte, n)
			for i := range bodies {
				body := fmt.Sprintf(clipperVar, 2.0+float64(i+1)*1e-3)
				benchPost(b, s.Handler(), reducePath, body) // warm each key
				bodies[i] = []byte(body)
			}
			var frame bytes.Buffer
			if err := wire.WriteBatchRequest(&frame, bodies); err != nil {
				b.Fatal(err)
			}
			batchPath := ts.URL + "/v1/reduce/batch?k1=2&k2=1&s0=0.4"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(batchPath, wire.BatchContentType, bytes.NewReader(frame.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				results, err := wire.ReadBatchResponse(resp.Body, 1<<24)
				resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if !res.OK() {
						b.Fatalf("item failed: %d %s", res.Status, res.Body)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/netlist")
		})
	}
}

// BenchmarkClientDirect is the ring-aware client's answer to
// BenchmarkServeClusterForward: the same hot reduce against a 2-node
// fleet, but the client computes the owner itself and dials it
// directly, so there is no relay hop to pay. Compare
// BenchmarkServeHTTPRoundTrip — the single-node wire floor — to see
// the placement overhead, and ServeClusterForward to see the
// forwarding tax it removes.
func BenchmarkClientDirect(b *testing.B) {
	nodes := startCluster(b, 2)
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	c, err := avtmorclient.New(avtmorclient.Config{Nodes: addrs})
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(fmt.Sprintf(clipperVar, 2.0))
	params := url.Values{"k1": {"2"}, "k2": {"1"}, "s0": {"0.4"}}
	ctx := context.Background()
	if _, err := c.Reduce(ctx, body, params); err != nil {
		b.Fatal(err) // warm the owner's cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reduce(ctx, body, params); err != nil {
			b.Fatal(err)
		}
	}
}
