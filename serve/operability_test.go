package serve_test

// E2E tests of the operability surfaces: per-key quotas, admission
// edge cases around malformed input, request-ID minting and fleet-wide
// propagation, and the Prometheus exposition of a live cluster.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avtmor/internal/promtext"
	"avtmor/serve"
)

// TestQuotaExhaustion: the default bucket rejects once its burst is
// spent, with a Retry-After the client can sleep on, while a keyed
// client with its own bucket keeps flowing and forwarded peer traffic
// is never charged twice.
func TestQuotaExhaustion(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		StoreDir: t.TempDir(),
		Quotas: map[string]serve.QuotaSpec{
			"":     {Rate: 0.001, Burst: 2}, // effectively no refill within the test
			"gold": {Rate: 1000, Burst: 1000},
		},
	})

	post := func(key string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+reducePath, strings.NewReader(clipper))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-Avtmor-Api-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Burst of 2: two unkeyed requests pass, the third is shed.
	for i := 0; i < 2; i++ {
		if resp := post(""); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: %d, want 200", i, resp.StatusCode)
		}
	}
	resp := post("")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("quota 429 Retry-After = %q, want a positive integer", ra)
	}

	// A key with its own bucket is unaffected by the drained default.
	if resp := post("gold"); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyed request against the drained default bucket: %d, want 200", resp.StatusCode)
	}

	// An unconfigured key falls to the (drained) default bucket.
	if resp := post("stranger"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unlisted key should share the default bucket: %d, want 429", resp.StatusCode)
	}

	// The rejections are visible in the metrics.
	if q := metrics(t, ts.URL)("avtmor_quota_rejected_total"); q < 2 {
		t.Fatalf("quota rejections = %v, want >= 2", q)
	}
}

// TestAdmissionEdgeInputs: malformed and oversized bodies are rejected
// before any cost is estimated or budget reserved — admission never
// leaks units to requests that cannot run.
func TestAdmissionEdgeInputs(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		StoreDir:     t.TempDir(),
		MaxBodyBytes: 1 << 10,
	})

	// Malformed netlist: 400, unpriced.
	resp, err := http.Post(ts.URL+reducePath, "text/plain", strings.NewReader("R1 this is not a netlist"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed netlist: %d, want 400", resp.StatusCode)
	}
	if c := resp.Header.Get("X-Avtmor-Cost"); c != "" {
		t.Fatalf("malformed netlist was priced (cost %s); estimation must follow parsing", c)
	}

	// Oversized body: shed by the byte cap, also unpriced.
	big := strings.Repeat("* comment line\n", 1<<10)
	resp, err = http.Post(ts.URL+reducePath, "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("oversized body: %d, want a 4xx rejection", resp.StatusCode)
	}
	if c := resp.Header.Get("X-Avtmor-Cost"); c != "" {
		t.Fatalf("oversized body was priced (cost %s)", c)
	}

	// No admission units leaked by either rejection.
	if u := metrics(t, ts.URL)("avtmor_admission_in_use"); u != 0 {
		t.Fatalf("admission units in use = %v after rejected requests, want 0", u)
	}
}

// TestCheapReduceNotStuckBehindSimulates: with a default Config and
// every CPU busy with a long admitted simulation, a cold clipper
// reduce is still admitted at once and answered while the simulations
// run. Admission prices the simulations at 92 units each, far below
// the budget, so nothing but CPU stands between the reduce and its
// answer.
func TestCheapReduceNotStuckBehindSimulates(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	_, key := postReduce(t, ts.URL, reducePath, clipper)

	procs := runtime.GOMAXPROCS(0)
	const simCost = 92 // 1 + order 3 · 2e6 steps / 65536
	workload := `{"tEnd": 5, "steps": 2000000, "every": 2000000, "integrator": "trapezoidal", "input": {"kind": "const", "values": [1]}}`
	ctx, cancel := context.WithCancel(t.Context())
	var sims sync.WaitGroup
	var finished atomic.Int32
	for i := 0; i < procs; i++ {
		sims.Add(1)
		go func() {
			defer sims.Done()
			defer finished.Add(1)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/roms/"+key+"/simulate", strings.NewReader(workload))
			if err != nil {
				return
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	defer func() {
		cancel()
		sims.Wait()
	}()
	waitFor(t, 5*time.Second, "every simulation to be admitted", func() bool {
		return metrics(t, ts.URL)("avtmor_admission_in_use") >= float64(procs*simCost)
	})

	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/reduce?k1=1&k2=1&s0=0.7", "text/plain", strings.NewReader(clipper))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold reduce beside the simulations: %d, want 200", resp.StatusCode)
	}
	if n := finished.Load(); n != 0 {
		t.Fatalf("%d simulations finished before the check; they must still run", n)
	}
	t.Logf("cold reduce answered in %v", elapsed)
	if elapsed > 250*time.Millisecond {
		t.Fatalf("cold reduce took %v beside %d running simulations, want <= 250ms", elapsed, procs)
	}
}

// TestRequestIDMintAndEcho: the entry node mints a valid trace ID when
// the client supplies none (or an invalid one) and echoes a valid
// client ID back unchanged.
func TestRequestIDMintAndEcho(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{StoreDir: t.TempDir()})

	get := func(rid string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rid != "" {
			req.Header.Set("X-Avtmor-Request-Id", rid)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get("X-Avtmor-Request-Id")
	}

	if minted := get(""); len(minted) != 16 {
		t.Fatalf("minted request ID %q, want 16 hex characters", minted)
	}
	if echoed := get("my-trace.0042"); echoed != "my-trace.0042" {
		t.Fatalf("valid client ID not echoed: got %q", echoed)
	}
	if replaced := get("bad id, has spaces"); replaced == "bad id, has spaces" || len(replaced) != 16 {
		t.Fatalf("invalid client ID not replaced with a minted one: got %q", replaced)
	}
}

// syncBuffer is a concurrency-safe access-log sink for cluster tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

// records decodes the buffered JSON lines.
func (sb *syncBuffer) records(t testing.TB) []map[string]any {
	t.Helper()
	sb.mu.Lock()
	lines := strings.Split(strings.TrimSpace(sb.b.String()), "\n")
	sb.mu.Unlock()
	var out []map[string]any
	for _, line := range lines {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestRequestIDPropagation: a trace ID attached at any entry node of a
// 3-node fleet appears in the access log of every node the request
// touched — the entry nodes and the owner that served their forwards —
// so one grep follows the request across the fleet.
func TestRequestIDPropagation(t *testing.T) {
	logs := make([]*syncBuffer, 3)
	nodes := startClusterCfg(t, 3, func(i int, cfg *serve.Config) {
		logs[i] = &syncBuffer{}
		cfg.AccessLog = logs[i]
	})

	const rid = "trace-e2e-0042"
	for i, n := range nodes {
		req, err := http.NewRequest(http.MethodPost, n.url+reducePath, strings.NewReader(clipper))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Avtmor-Request-Id", rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reduce via node %d: %d", i, resp.StatusCode)
		}
		if echoed := resp.Header.Get("X-Avtmor-Request-Id"); echoed != rid {
			t.Fatalf("node %d echoed request ID %q, want %q", i, echoed, rid)
		}
	}

	owner := ownerIndex(t, nodes)

	// Log lines are written after the response is on the wire; poll.
	countRID := func(i int, forwardedOnly bool) int {
		n := 0
		for _, rec := range logs[i].records(t) {
			if rec["request_id"] != rid {
				continue
			}
			if forwardedOnly && rec["forwarded_from"] == nil {
				continue
			}
			n++
		}
		return n
	}
	waitFor(t, 5*time.Second, "request ID in every entry node's log", func() bool {
		for i := range nodes {
			if countRID(i, false) == 0 {
				return false
			}
		}
		return true
	})
	// The two non-owner entries forwarded; the owner logged both
	// forwarded serves under the same trace ID, with the forwarding
	// peer recorded.
	waitFor(t, 5*time.Second, "forwarded serves in the owner's log", func() bool {
		return countRID(owner, true) >= 2
	})
	for _, rec := range logs[owner].records(t) {
		if rec["request_id"] == rid && rec["forwarded_from"] != nil {
			if rec["node"] != nodes[owner].addr {
				t.Fatalf("owner log line carries node %v, want %s", rec["node"], nodes[owner].addr)
			}
		}
	}
}

// TestPromExpositionCluster: every node of a live replicated fleet
// serves a valid Prometheus text exposition (validated by the strict
// parser, histogram invariants included), the fleet-wide reduce
// counter is live, and the cluster gauges agree with the membership.
func TestPromExpositionCluster(t *testing.T) {
	nodes := startCluster(t, 3)
	for _, n := range nodes {
		postReduce(t, n.url, reducePath, clipper)
	}

	var reduceTotal float64
	for i, n := range nodes {
		resp, err := http.Get(n.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("node %d /metrics Content-Type = %q", i, ct)
		}
		scrape, err := promtext.Parse(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("node %d: invalid exposition: %v", i, err)
		}
		v, ok := scrape.Value("avtmor_reduce_total")
		if !ok {
			t.Fatalf("node %d: no avtmor_reduce_total", i)
		}
		reduceTotal += v
		if nn, ok := scrape.Value("avtmor_cluster_nodes"); !ok || nn != 3 {
			t.Fatalf("node %d: avtmor_cluster_nodes = %v (ok=%v), want 3", i, nn, ok)
		}
		fam := scrape.Family("avtmor_http_request_seconds")
		if fam == nil || fam.Type != "histogram" {
			t.Fatalf("node %d: avtmor_http_request_seconds missing or not a histogram", i)
		}
	}
	if reduceTotal < 3 {
		t.Fatalf("fleet-wide avtmor_reduce_total = %v, want >= 3", reduceTotal)
	}
}
