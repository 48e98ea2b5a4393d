package serve

// Tests of the one load gate that reach inside the package: a
// request's own deadline bounds its admission wait, Close sheds
// waiters and waits for admitted work, and a waiter whose client
// leaves never runs.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avtmor"
	"avtmor/internal/promtext"
	"avtmor/internal/wire"
)

// coldPath reduces the clipper with orders no warming request in these
// tests uses, so it always needs admission.
const coldPath = "/v1/reduce?k1=1&k2=1&s0=0.7"

// newAdmissionServer starts a server with the given cost budget (0 =
// default) behind an httptest listener that closes at cleanup. The
// caller owns s.Close.
func newAdmissionServer(t *testing.T, budget int64) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{StoreDir: t.TempDir(), CostBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body to url under ctx and returns the status, response
// body and headers (status 0 and the error text when the request
// itself failed).
func post(ctx context.Context, url, contentType string, body []byte) (int, []byte, http.Header) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error()), nil
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, []byte(err.Error()), nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header
}

// scrapeValue reads one sample from the server's exposition, summed
// across label sets.
func scrapeValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.prom.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	scrape, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := scrape.Value(name)
	if !ok {
		t.Fatalf("no %s in the scrape", name)
	}
	return v
}

// waitUntil polls cond for up to 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitAdmissionWait blocks until the server has counted n reduce
// requests, then gives the last one a moment to reach the admission
// wait (parsing the clipper takes microseconds).
func awaitAdmissionWait(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitUntil(t, "the reduce to arrive", func() bool { return s.reduceReqs.Value() >= n })
	time.Sleep(50 * time.Millisecond)
}

// TestAdmissionDeadline: a request whose own deadline ends while it
// waits for admission is answered 504 at that deadline, not 429 at the
// end of the 2 s admission window, on every path the gate guards.
func TestAdmissionDeadline(t *testing.T) {
	s, ts := newAdmissionServer(t, 0)
	defer s.Close()
	status, body, hdr := post(t.Context(), ts.URL+"/v1/reduce?k1=2&k2=1&s0=0.4", "text/plain", []byte(clipperBody))
	if status != http.StatusOK {
		t.Fatalf("warming reduce: %d %s", status, body)
	}
	key := hdr.Get("X-Avtmor-Rom-Key")

	release, ok := s.adm.tryAdmit(s.adm.budget)
	if !ok {
		t.Fatal("could not reserve the full budget on an idle server")
	}
	defer release()

	var frame bytes.Buffer
	if err := wire.WriteBatchRequest(&frame, [][]byte{[]byte(clipperBody)}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		do   func(t *testing.T) (int, []byte)
	}{
		{"reduce", func(t *testing.T) (int, []byte) {
			code, body, _ := post(t.Context(), ts.URL+coldPath+"&timeout=100ms", "text/plain", []byte(clipperBody))
			return code, body
		}},
		{"simulate", func(t *testing.T) (int, []byte) {
			workload := `{"tEnd": 5, "steps": 100, "timeout": "100ms", "input": {"kind": "const", "values": [1]}}`
			code, body, _ := post(t.Context(), ts.URL+"/v1/roms/"+key+"/simulate", "application/json", []byte(workload))
			return code, body
		}},
		{"batch item", func(t *testing.T) (int, []byte) {
			code, body, _ := post(t.Context(), ts.URL+"/v1/reduce/batch?k1=1&k2=1&s0=0.7&timeout=100ms", wire.BatchContentType, frame.Bytes())
			if code != http.StatusOK {
				t.Fatalf("batch: %d %s", code, body)
			}
			results, err := wire.ReadBatchResponse(bytes.NewReader(body), 1<<20)
			if err != nil || len(results) != 1 {
				t.Fatalf("batch response: %d results, %v", len(results), err)
			}
			return results[0].Status, results[0].Body
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			code, body := tc.do(t)
			elapsed := time.Since(start)
			if code != http.StatusGatewayTimeout || !strings.Contains(string(body), "deadline exceeded") {
				t.Fatalf("%d %q, want 504 deadline exceeded", code, body)
			}
			if elapsed >= time.Second {
				t.Fatalf("answered after %v; the 100 ms deadline did not bound the admission wait", elapsed)
			}
		})
	}
	if r := s.reducer.Stats().Reductions; r != 1 {
		t.Fatalf("%d reductions, want only the warming one", r)
	}
}

// TestCloseShedsAndStops: Close turns a request that is waiting for
// admission away with 503 at once (not 429 at the end of its window),
// answers 503 to cold work that arrives after it, and is idempotent.
func TestCloseShedsAndStops(t *testing.T) {
	s, ts := newAdmissionServer(t, 8)
	release, ok := s.adm.tryAdmit(8)
	if !ok {
		t.Fatal("could not reserve the full budget on an idle server")
	}

	type answer struct {
		code int
		body []byte
	}
	waiter := make(chan answer, 1)
	go func() {
		code, body, _ := post(context.Background(), ts.URL+coldPath, "text/plain", []byte(clipperBody))
		waiter <- answer{code, body}
	}()
	awaitAdmissionWait(t, s, 1)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case a := <-waiter:
		if a.code != http.StatusServiceUnavailable {
			t.Fatalf("waiter during Close: %d %s, want 503", a.code, a.body)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not shed within 1 s of Close")
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the admitted work ended")
	}
	if code, body, _ := post(t.Context(), ts.URL+coldPath, "text/plain", []byte(clipperBody)); code != http.StatusServiceUnavailable {
		t.Fatalf("cold reduce after Close: %d %s, want 503", code, body)
	}
	if r := s.reducer.Stats().Reductions; r != 0 {
		t.Fatalf("%d reductions ran, want 0", r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWaitsForAdmittedWork: Close does not return while an
// admitted simulation runs, and returns once it ends.
func TestCloseWaitsForAdmittedWork(t *testing.T) {
	s, ts := newAdmissionServer(t, 0)
	status, _, hdr := post(t.Context(), ts.URL+"/v1/reduce?k1=2&k2=1&s0=0.4", "text/plain", []byte(clipperBody))
	if status != http.StatusOK {
		t.Fatalf("warming reduce: %d", status)
	}
	key := hdr.Get("X-Avtmor-Rom-Key")

	ctx, cancel := context.WithCancel(t.Context())
	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		workload := `{"tEnd": 5, "steps": 2000000, "every": 2000000, "integrator": "trapezoidal", "timeout": "60s", "input": {"kind": "const", "values": [1]}}`
		post(ctx, ts.URL+"/v1/roms/"+key+"/simulate", "application/json", []byte(workload))
	}()
	waitUntil(t, "the simulation to be admitted", func() bool { return s.adm.used() > 0 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while admitted work was running")
	case <-time.After(200 * time.Millisecond):
	}
	cancel()
	<-simDone
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the admitted work ended")
	}
	if u := s.adm.used(); u != 0 {
		t.Fatalf("admission units in use after Close = %d, want 0", u)
	}
}

// TestAdmissionAbandonedWhileWaiting: a request whose client leaves
// while it waits for admission never runs its reduction, and leaves the
// admission gauge where it was.
func TestAdmissionAbandonedWhileWaiting(t *testing.T) {
	s, ts := newAdmissionServer(t, 8)
	defer s.Close()
	release, ok := s.adm.tryAdmit(8)
	if !ok {
		t.Fatal("could not reserve the full budget on an idle server")
	}
	defer release()

	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	go func() {
		defer close(done)
		post(ctx, ts.URL+coldPath, "text/plain", []byte(clipperBody))
	}()
	awaitAdmissionWait(t, s, 1)
	cancel()
	<-done
	waitUntil(t, "the server to notice the client left", func() bool { return s.clientErrs.Value() == 1 })
	if u := scrapeValue(t, s, "avtmor_admission_in_use"); u != 8 {
		t.Fatalf("avtmor_admission_in_use = %v after the waiter left, want 8", u)
	}
	release()
	if u := scrapeValue(t, s, "avtmor_admission_in_use"); u != 0 {
		t.Fatalf("avtmor_admission_in_use = %v after the release, want 0", u)
	}
	time.Sleep(50 * time.Millisecond)
	if r := scrapeValue(t, s, "avtmor_reductions_total"); r != 0 {
		t.Fatalf("the abandoned waiter ran its reduction (%v reductions)", r)
	}
}

// TestRememberBounded: with persistence disabled, the by-address
// artifact map honors CacheLimit (oldest trimmed first) instead of
// growing without bound.
func TestRememberBounded(t *testing.T) {
	s, err := New(Config{CacheLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	roms := []*avtmor.ROM{{}, {}, {}}
	for i, r := range roms {
		s.remember(string(rune('a'+i)), r)
	}
	s.remember("c", roms[2]) // re-remember of a resident key must not duplicate
	if len(s.mem) != 2 || len(s.memOrder) != 2 {
		t.Fatalf("mem %d entries, order %d; want 2", len(s.mem), len(s.memOrder))
	}
	if rom, _ := s.lookup("a"); rom != nil {
		t.Fatal("oldest artifact survived past the limit")
	}
	for i, d := range []string{"b", "c"} {
		if rom, _ := s.lookup(d); rom != roms[i+1] {
			t.Fatalf("artifact %s lost", d)
		}
	}
	// Unbounded when CacheLimit is 0.
	u, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 0; i < 100; i++ {
		u.remember(string(rune(i)), &avtmor.ROM{})
	}
	if len(u.mem) != 100 {
		t.Fatalf("unbounded mem trimmed to %d", len(u.mem))
	}
}
