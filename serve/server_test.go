package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"avtmor"
	"avtmor/internal/promtext"
	"avtmor/serve"
)

// clipper is the 3-state diode clipper netlist of the facade tests —
// small enough that a full reduction is test-cheap.
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

const reducePath = "/v1/reduce?k1=2&k2=1&s0=0.4"

func newTestServer(t testing.TB, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postReduce(t testing.TB, base, path, body string) ([]byte, string) {
	t.Helper()
	resp, err := http.Post(base+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, data)
	}
	key := resp.Header.Get("X-Avtmor-Rom-Key")
	if key == "" {
		t.Fatal("response carries no X-Avtmor-Rom-Key")
	}
	return data, key
}

// metrics scrapes base's GET /metrics through the strict exposition
// parser. The returned lookup takes a sample name, summed across its
// label sets, or one labeled series spelled as series() renders it; it
// fails the test when the scrape carries no such sample, so a
// misspelled name can never read as a zero.
func metrics(t testing.TB, base string) func(sample string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("invalid exposition from %s: %v", base, err)
	}
	vals := map[string]float64{}
	for _, name := range scrape.Families() {
		for _, smp := range scrape.Family(name).Samples {
			vals[smp.Name] += smp.Value
			if len(smp.Labels) > 0 {
				vals[series(smp.Name, smp.Labels...)] = smp.Value
			}
		}
	}
	return func(sample string) float64 {
		t.Helper()
		v, ok := vals[sample]
		if !ok {
			t.Fatalf("%s/metrics has no sample %s", base, sample)
		}
		return v
	}
}

// series spells one labeled sample the way metrics' lookup keys it:
// name{label="value",...}, labels in exposition order.
func series(name string, labels ...promtext.Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// peerSeries is the per-peer forward counter series for one peer.
func peerSeries(name, peer string) string {
	return series(name, promtext.Label{Name: "peer", Value: peer})
}

// TestServeDurabilityAcrossRestart is the subsystem acceptance check:
// reduce over HTTP, restart the daemon on the same store directory,
// re-request the same key — the artifact is served from disk
// byte-identical to the first response, with the store hit visible in
// /metrics.
func TestServeDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	s1, err := serve.New(serve.Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	body1, key1 := postReduce(t, ts1.URL, reducePath, clipper)
	// Same process, same request: served from memory, still identical.
	body1b, _ := postReduce(t, ts1.URL, reducePath, clipper)
	if !bytes.Equal(body1, body1b) {
		t.Fatal("same-process re-request returned different bytes")
	}
	m := metrics(t, ts1.URL)
	if r, c, n := m("avtmor_reductions_total"), m("avtmor_cache_hits_total"), m("avtmor_store_roms"); r != 1 || c != 1 || n != 1 {
		t.Fatalf("first-process metrics: reductions %v, cache hits %v, store ROMs %v", r, c, n)
	}
	ts1.Close()
	s1.Close()

	// "Restart": a fresh Server over the same directory, its in-memory
	// tiers empty.
	s2, ts2 := newTestServer(t, serve.Config{StoreDir: dir})
	_ = s2
	body2, key2 := postReduce(t, ts2.URL, reducePath, clipper)
	if key2 != key1 {
		t.Fatalf("content address changed across restart: %s vs %s", key2, key1)
	}
	if !bytes.Equal(body2, body1) {
		t.Fatal("restarted daemon served different bytes for the same key")
	}
	m = metrics(t, ts2.URL)
	if r := m("avtmor_reductions_total"); r != 0 {
		t.Fatalf("restarted daemon re-reduced instead of loading from store: %v reductions", r)
	}
	if h := m("avtmor_store_hits_total"); h != 1 {
		t.Fatalf("store hit not visible in /metrics: %v store hits", h)
	}

	// The artifact is also addressable directly.
	resp, err := http.Get(ts2.URL + "/v1/roms/" + key1)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(direct, body1) {
		t.Fatalf("GET /v1/roms/%s: %d, identical=%v", key1, resp.StatusCode, bytes.Equal(direct, body1))
	}

	// And it deserializes into a working ROM client-side.
	rom, err := avtmor.ReadROM(bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	if rom.Order() < 1 {
		t.Fatalf("order %d", rom.Order())
	}
}

// TestServeConcurrentColdRequests: N identical cold requests against a
// fresh daemon perform exactly one underlying reduction (singleflight
// across HTTP), all answered with identical bytes. Run under -race in
// CI.
func TestServeConcurrentColdRequests(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{StoreDir: t.TempDir()})
	const callers = 8
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+reducePath, "text/plain", strings.NewReader(clipper))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d received different bytes", i)
		}
	}
	m := metrics(t, ts.URL)
	if r := m("avtmor_reductions_total"); r != 1 {
		t.Fatalf("%v underlying reductions for %d identical requests, want exactly 1", r, callers)
	}
	if co, ch := m("avtmor_coalesced_total"), m("avtmor_cache_hits_total"); co+ch != callers-1 {
		t.Fatalf("coalesced %v + cache hits %v, want %d", co, ch, callers-1)
	}
}

// TestServeSerializedSystemBody: a binary System body reduces to the
// same artifact (same content address) as its netlist twin only when
// matrices match; here we just assert the binary path works end to end
// and dedupes with itself.
func TestServeSerializedSystemBody(t *testing.T) {
	sys, err := avtmor.ParseNetlist(strings.NewReader(clipper))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if _, err := sys.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, serve.Config{StoreDir: t.TempDir()})

	fromNetlist, keyN := postReduce(t, ts.URL, reducePath, clipper)
	fromBinary, keyB := postReduce(t, ts.URL, reducePath, bin.String())
	if keyB != keyN {
		t.Fatalf("binary and netlist bodies of the same circuit got different addresses: %s vs %s", keyB, keyN)
	}
	if !bytes.Equal(fromBinary, fromNetlist) {
		t.Fatal("binary body produced different artifact bytes")
	}
	if r := metrics(t, ts.URL)("avtmor_reductions_total"); r != 1 {
		t.Fatalf("binary twin re-reduced: %v reductions", r)
	}
}

// TestServeSimulate: a stored ROM simulates over the wire, and the
// trajectory matches a client-side simulation of the same artifact
// exactly (same integrator, same bytes, same arithmetic).
func TestServeSimulate(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{StoreDir: t.TempDir()})
	body, key := postReduce(t, ts.URL, reducePath, clipper)

	workload := `{"tEnd": 5, "steps": 200, "input": {"kind": "const", "values": [1]}}`
	resp, err := http.Post(ts.URL+"/v1/roms/"+key+"/simulate", "application/json", strings.NewReader(workload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("simulate: %d: %s", resp.StatusCode, data)
	}
	var got struct {
		T []float64   `json:"t"`
		Y [][]float64 `json:"y"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.T) != len(got.Y) || len(got.T) != 201 {
		t.Fatalf("trajectory shape: %d times, %d outputs", len(got.T), len(got.Y))
	}

	rom, err := avtmor.ReadROM(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rom.Simulate(t.Context(), avtmor.ConstInput([]float64{1}), 5, avtmor.WithRK4(200))
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.T {
		if got.T[k] != ref.T[k] || got.Y[k][0] != ref.Y[k][0] {
			t.Fatalf("sample %d: wire (%g, %g) vs local (%g, %g)", k, got.T[k], got.Y[k][0], ref.T[k], ref.Y[k][0])
		}
	}

	// CSV rendering of the same workload.
	resp, err = http.Post(ts.URL+"/v1/roms/"+key+"/simulate?format=csv", "application/json", strings.NewReader(workload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	csvData, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if resp.StatusCode != http.StatusOK || lines[0] != "t,y0" || len(lines) != 202 {
		t.Fatalf("csv: %d, header %q, %d lines", resp.StatusCode, lines[0], len(lines))
	}
}

// TestServeErrors: malformed requests map to the right statuses and
// never crash the daemon.
func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	if code, msg := post("/v1/reduce", "R1 notanode\n"); code != http.StatusBadRequest {
		t.Fatalf("bad netlist: %d %s", code, msg)
	}
	if code, msg := post("/v1/reduce", ""); code != http.StatusBadRequest {
		t.Fatalf("empty body: %d %s", code, msg)
	}
	// A lone high input channel is refused while parsing, before it can
	// size anything by the channel number.
	if code, msg := post("/v1/reduce", "* t\nI0 0 n1 IN50000000 1\nC1 n1 0 1\nR1 n1 0 2\n.out n1\n"); code != http.StatusBadRequest || !strings.Contains(msg, "IN0") {
		t.Fatalf("undriven channel: %d %s", code, msg)
	}
	if code, msg := post("/v1/reduce?k1=notanumber", clipper); code != http.StatusBadRequest {
		t.Fatalf("bad option: %d %s", code, msg)
	}
	if code, msg := post("/v1/reduce?k1=2&auto=1e-4", clipper); code != http.StatusBadRequest {
		t.Fatalf("conflicting orders: %d %s", code, msg)
	}
	// Explicit but useless/negative orders must error, not silently
	// fall through to auto selection.
	if code, msg := post("/v1/reduce?k1=0&k2=0", clipper); code != http.StatusBadRequest {
		t.Fatalf("all-zero explicit orders: %d %s", code, msg)
	}
	if code, msg := post("/v1/reduce?k1=2&k2=-2", clipper); code != http.StatusBadRequest {
		t.Fatalf("negative order: %d %s", code, msg)
	}
	if code, msg := post("/v1/reduce?method=magic", clipper); code != http.StatusBadRequest {
		t.Fatalf("bad method: %d %s", code, msg)
	}
	// A corrupted serialized-System body is reported as such, not
	// parsed as a netlist.
	var bin bytes.Buffer
	sys, _ := avtmor.ParseNetlist(strings.NewReader(clipper))
	sys.WriteTo(&bin)
	if code, msg := post(reducePath, bin.String()[:bin.Len()/2]); code != http.StatusBadRequest || !strings.Contains(msg, "System") {
		t.Fatalf("truncated binary body: %d %s", code, msg)
	}
	// Unreducible request against a fine system: unprocessable.
	if code, msg := post("/v1/reduce?k1=2&k2=1", clipper); code != http.StatusUnprocessableEntity {
		// DC expansion of the clipper hits the singular-G1 path.
		t.Logf("note: %d %s", code, msg)
	}
	// Deadline that cannot be met.
	if code, msg := post("/v1/reduce?k1=2&k2=1&s0=0.4&timeout=1ns", clipper); code != http.StatusGatewayTimeout {
		t.Fatalf("timeout: %d %s", code, msg)
	}

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/roms/deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown ROM: %d", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	// /metrics is the only metric surface; the legacy JSON route is gone.
	if code := get("/metrics.json"); code != http.StatusNotFound {
		t.Fatalf("legacy /metrics.json: %d, want 404", code)
	}
	if code, _ := post("/v1/roms/deadbeef/simulate", "{}"); code != http.StatusNotFound {
		t.Fatal("simulate on unknown ROM must 404")
	}

	// Simulate validation errors on a real ROM.
	_, key := postReduce(t, ts.URL, reducePath, clipper)
	simURL := "/v1/roms/" + key + "/simulate"
	for _, bad := range []string{
		`not json`,
		`{"tEnd": 0, "input": {"kind": "const", "values": [1]}}`,
		`{"tEnd": 1, "input": {"kind": "const", "values": [1, 2]}}`,
		`{"tEnd": 1, "input": {"kind": "warble", "values": [1]}}`,
		`{"tEnd": 1, "integrator": "euler", "input": {"kind": "const", "values": [1]}}`,
		`{"tEnd": 1, "x0": [], "input": {"kind": "const", "values": [1]}}`,
		`{"tEnd": 1, "unknownField": true, "input": {"kind": "const", "values": [1]}}`,
	} {
		if code, msg := post(simURL, bad); code != http.StatusBadRequest {
			t.Fatalf("workload %s: %d %s", bad, code, msg)
		}
	}
}
