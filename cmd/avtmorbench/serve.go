package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avtmor"
	"avtmor/internal/promtext"
	"avtmor/internal/wire"
	"avtmor/serve"
)

// Request classes of the serve workloads.
const (
	clsCold   = iota // POST /v1/reduce of a never-seen ladder
	clsHot           // POST /v1/reduce of a pre-warmed ladder
	clsGet           // GET /v1/roms/{key}
	clsGet304        // the same GET with a matching If-None-Match
	clsSim           // POST /v1/roms/{key}/simulate
	clsBatch         // POST /v1/reduce/batch
	numClasses
)

var classNames = [numClasses]string{"cold", "hot", "get", "get304", "sim", "batch"}

// serveConfig describes one serve workload: an open loop at a low and a
// high rate, and the latency limit a response must meet to count toward
// goodput.
type serveConfig struct {
	read              bool
	lowRate, highRate float64 // requests per second
	limit             time.Duration
	minSetups         int // daemon set-ups timed at least (see timeSetup)
}

var serveWorkloads = map[string]serveConfig{
	"serve-write": {lowRate: 100, highRate: 200, limit: 50 * time.Millisecond, minSetups: 9},
	"serve-read":  {read: true, lowRate: 300, highRate: 800, limit: 10 * time.Millisecond, minSetups: 3},
}

// serve-read's key space and mix.
const (
	readKeys   = 256 // pre-warmed ladders: 4× the daemon's LRU
	readCache  = 64  // the daemon's CacheLimit
	batchItems = 8
	zipfS      = 1.1
)

// checkSetSize is the number of ladders whose served ROMs are checked
// against their full transient: ladder i < checkSetSize has 5+i stages,
// so the set covers every stage count once.
const checkSetSize = maxStages - minStages + 1

// ladderBound is the largest relative transient error a served ladder
// ROM may show against its full model (seed 1 measures ≤ 4e-5).
const ladderBound = 1e-3

// maxLateMs is how late the generator may send a request it was free to
// send on time before the run's latencies are suspect (it is warned about,
// not failed: on a 2-CPU host the daemon and the generator share both
// CPUs, and a single late send in thousands is common).
const maxLateMs = 10

// Share of the measuring time spent in each phase.
const (
	warmShare = 0.1
	lowShare  = 0.45
	highShare = 0.45
)

// harness is one in-process daemon on loopback TCP, and the keep-alive
// client the load generator uses.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // Serve's return value
	base   string
	client *http.Client
}

// startHarness starts a daemon on the store directory storeDir ("" for a
// daemon without an on-disk store).
func startHarness(storeDir string, cacheLimit int) (*harness, error) {
	srv, err := serve.New(serve.Config{StoreDir: storeDir, CacheLimit: cacheLimit})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: runtime.GOMAXPROCS(0),
			MaxConnsPerHost:     runtime.GOMAXPROCS(0),
			DisableCompression:  true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener and the daemon and waits for both.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.served
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// request is one scheduled request.
type request struct {
	class  int
	method string
	path   string
	body   []byte
	inm    string // If-None-Match
	ladder int    // the ladder it names (not for batches)
	items  []int  // batch: the ladders it carries
}

// response is what the generator keeps of a response for checking.
type response struct {
	status int
	key    string
	body   []byte
}

// sample is one request's timing: due is when the open loop scheduled
// it, and latency runs from due to the end of the response.
type sample struct {
	class          int
	due, sent, end time.Time
	idle           bool          // the sender was free before the request was due
	late           time.Duration // when idle: how far past due it was sent
	ok             bool
}

func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// do sends one request, tagged with request id bench-<idx> unless idx is
// negative, and reads the whole response.
func (h *harness) do(ctx context.Context, rq *request, idx int) (response, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, h.base+rq.path, body)
	if err != nil {
		return response{}, err
	}
	if idx >= 0 {
		req.Header.Set(serve.HeaderRequestID, "bench-"+strconv.Itoa(idx))
	}
	if rq.inm != "" {
		req.Header.Set("If-None-Match", rq.inm)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, key: resp.Header.Get("X-Avtmor-Rom-Key"), body: b}, err
}

// window runs reqs as an open loop at rate: request i is due at
// start + i/rate whatever happened to earlier ones. GOMAXPROCS senders
// share the schedule, one keep-alive connection each; when all are busy
// a due request waits, and that wait is part of its latency. check
// judges each response right after it is timed.
func (h *harness) window(ctx context.Context, reqs []request, first int, rate float64, check func(rq *request, r response) bool) []sample {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				s := &samples[i]
				s.class = reqs[i].class
				s.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
					s.idle = true
				}
				s.sent = time.Now()
				if s.idle {
					s.late = s.sent.Sub(s.due)
				}
				r, err := h.do(ctx, &reqs[i], first+i)
				s.end = time.Now()
				s.ok = err == nil && check(&reqs[i], r)
			}
		}()
	}
	wg.Wait()
	return samples
}

// scrape reads the daemon's Prometheus exposition.
func (h *harness) scrape(ctx context.Context) (*promtext.Scrape, error) {
	r, err := h.do(ctx, &request{method: http.MethodGet, path: "/metrics"}, -1)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", r.status)
	}
	return promtext.Parse(bytes.NewReader(r.body))
}

// delta is the change of a sample between two scrapes.
func delta(a, b *promtext.Scrape, name string) float64 {
	va, _ := a.Value(name)
	vb, _ := b.Value(name)
	return vb - va
}

// histMeanMs is a histogram's mean observation between two scrapes, in ms.
func histMeanMs(a, b *promtext.Scrape, fam string) float64 {
	n := delta(a, b, fam+"_count")
	if n == 0 {
		return 0
	}
	return 1e3 * delta(a, b, fam+"_sum") / n
}

// histQuantileMs estimates a quantile of a histogram's observations
// between two scrapes, interpolating inside the bucket that holds it.
func histQuantileMs(a, b *promtext.Scrape, fam string, q float64) float64 {
	type bucket struct{ le, n float64 }
	counts := func(s *promtext.Scrape) map[string]float64 {
		out := map[string]float64{}
		if f := s.Family(fam); f != nil {
			for _, smp := range f.Samples {
				if smp.Name != fam+"_bucket" {
					continue
				}
				for _, l := range smp.Labels {
					if l.Name == "le" {
						out[l.Value] = smp.Value
					}
				}
			}
		}
		return out
	}
	ca, cb := counts(a), counts(b)
	var bs []bucket
	for le, v := range cb {
		x, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{x, v - ca[le]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	prevLe, prevN := 0.0, 0.0
	for _, bk := range bs {
		if bk.n >= target {
			if bk.n == prevN || bk.le > 1e9 {
				return 1e3 * prevLe
			}
			return 1e3 * (prevLe + (bk.le-prevLe)*(target-prevN)/(bk.n-prevN))
		}
		prevLe, prevN = bk.le, bk.n
	}
	return 1e3 * prevLe
}

// served is a ROM the daemon returned, kept for the accuracy check.
type served struct {
	netlist []byte
	body    []byte
}

// runServe runs a serve workload.
func runServe(ctx context.Context, cfg *config, sc serveConfig, rn *run) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	secs := cfg.seconds.Seconds()
	nWarm := max(1, int(warmShare*secs*sc.lowRate))
	nLow := max(1, int(lowShare*secs*sc.lowRate))
	nHigh := max(1, int(highShare*secs*sc.highRate))

	// Inputs, all from the seed: the ladders and the request schedule.
	var ladders [][]byte
	var reqs []request
	if sc.read {
		for i := 0; i < readKeys; i++ {
			ladders = append(ladders, ladder(rng, i))
		}
		reqs = readSchedule(rng, ladders, nWarm+nLow+nHigh)
	} else {
		for i := 0; i < nWarm+nLow+nHigh; i++ {
			ladders = append(ladders, ladder(rng, i))
			reqs = append(reqs, request{class: clsCold, method: http.MethodPost, path: "/v1/reduce?" + ladderQuery,
				body: ladders[i], ladder: i})
		}
	}

	h, prewarm, err := setUpDaemon(ctx, cfg, sc, rn, ladders)
	if err != nil {
		return err
	}
	defer h.close()
	if sc.read {
		bindDigests(reqs, prewarm)
	}

	// The run's checks. Served ROMs of the check-set ladders are kept.
	var mu sync.Mutex
	checkSet := map[int]served{}
	for i, r := range prewarm[:min(len(prewarm), checkSetSize)] {
		checkSet[i] = served{netlist: ladders[i], body: r.body}
	}
	var flipped atomic.Bool
	corrupt := func(b []byte) []byte {
		if cfg.faults.flipServedByte && len(b) > 0 && flipped.CompareAndSwap(false, true) {
			b = append([]byte(nil), b...)
			b[0] ^= 0xff
		}
		return b
	}
	check := func(rq *request, r response) bool {
		switch rq.class {
		case clsCold:
			body := corrupt(r.body)
			if r.status != http.StatusOK || r.key == "" {
				return false
			}
			if _, err := avtmor.ReadROM(bytes.NewReader(body)); err != nil {
				return false
			}
			if rq.ladder < checkSetSize {
				mu.Lock()
				checkSet[rq.ladder] = served{netlist: rq.body, body: body}
				mu.Unlock()
			}
			return true
		case clsHot, clsGet:
			return r.status == http.StatusOK && bytes.Equal(corrupt(r.body), prewarm[rq.ladder].body)
		case clsGet304:
			return r.status == http.StatusNotModified && len(r.body) == 0
		case clsSim:
			var sim struct {
				T []float64   `json:"t"`
				Y [][]float64 `json:"y"`
			}
			return r.status == http.StatusOK && json.Unmarshal(r.body, &sim) == nil &&
				len(sim.T) == ladderSteps+1 && len(sim.Y) == len(sim.T)
		case clsBatch:
			if r.status != http.StatusOK {
				return false
			}
			res, err := wire.ReadBatchResponse(bytes.NewReader(r.body), 1<<24)
			if err != nil || len(res) != len(rq.items) {
				return false
			}
			for j, it := range rq.items {
				if !res[j].OK() || !bytes.Equal(res[j].Body, prewarm[it].body) {
					return false
				}
			}
			return true
		}
		return false
	}

	m0, err := h.scrape(ctx)
	if err != nil {
		return err
	}
	warm := h.window(ctx, reqs[:nWarm], 0, sc.lowRate, check)
	// The check set has been served by now: serve-read's comes from the
	// pre-warm, and serve-write's warm-up window (10 requests per second
	// of -seconds) opens with ladders 0..25, all of them from 3 s up.
	mu.Lock()
	cm, err := prepareCheck(rn, checkSet)
	mu.Unlock()
	if err != nil {
		return err
	}
	if err := cm.sweeps(ctx, false); err != nil {
		return err
	}
	m1, err := h.scrape(ctx)
	if err != nil {
		return err
	}
	low := h.window(ctx, reqs[nWarm:nWarm+nLow], nWarm, sc.lowRate, check)
	if err := cm.sweeps(ctx, true); err != nil {
		return err
	}
	m2, err := h.scrape(ctx)
	if err != nil {
		return err
	}
	high := h.window(ctx, reqs[nWarm+nLow:], nWarm+nLow, sc.highRate, check)
	m3, err := h.scrape(ctx)
	if err != nil {
		return err
	}
	if err := cm.sweeps(ctx, true); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	okCold := 0
	for _, set := range [][]sample{warm, low, high} {
		for _, s := range set {
			rn.check(s.ok, "%s request failed or returned a wrong body", classNames[s.class])
			if s.ok && s.class == clsCold {
				okCold++
			}
		}
	}
	reductions := delta(m0, m3, "avtmor_reductions_total")
	if sc.read {
		rn.check(reductions == 0, "serve-read performed %.0f reductions, want 0", reductions)
	} else {
		rn.check(reductions == float64(okCold), "serve-write performed %.0f reductions for %d requests", reductions, okCold)
	}

	reportServe(rn, sc, low, high, m1, m2, m3)
	if err := cm.finish(cfg, rn); err != nil {
		return err
	}
	if cfg.traced {
		return traceServe(cfg, rn, warm, low, high)
	}
	return nil
}

// setUpDaemon starts the daemon as often as timeSetup asks and keeps the
// last one, reporting the median set-up time.
//
// serve-read's daemon has an on-disk store, because its LRU misses are
// store hits. Each of its set-ups starts on a fresh, empty store
// directory made before the clock starts (creating it is a metadata
// write whose cost follows the disk's journal, not the daemon), and
// pre-warms it with every ladder.
//
// serve-write's daemon has no on-disk store. The benchmark may write only
// inside its checkout, so the store would sit on the checkout's disk, not
// on a tmpfs, and every request would wait for an fsync there. In six
// alternating runs on the calibration host, that put serve-write's p50 at
// 5.4–9.3 ms with the store and at 4.3–4.6 ms without it: the disk's
// other tenants, not the daemon, set the spread. The fsync cost is
// reported per layer instead (store.write_ms, on the checkout's disk).
func setUpDaemon(ctx context.Context, cfg *config, sc serveConfig, rn *run, ladders [][]byte) (*harness, []response, error) {
	cacheLimit := 0
	if sc.read {
		cacheLimit = readCache
	}
	var h *harness
	var prewarm []response
	reps := 0
	setup, err := timeSetup(sc.minSetups, func() (time.Duration, error) {
		if h != nil {
			h.close()
			h = nil
			runtime.GC() // each set-up starts from a heap without the last one's garbage
		}
		storeDir := ""
		if sc.read {
			storeDir = filepath.Join(cfg.runDir(), fmt.Sprintf("store%d", reps))
			reps++
			if err := os.MkdirAll(storeDir, 0o755); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		if h, err = startHarness(storeDir, cacheLimit); err != nil {
			return 0, err
		}
		if sc.read {
			if prewarm, err = h.prewarm(ctx, ladders); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		if h != nil {
			h.close()
		}
		return nil, nil, err
	}
	rn.set("setup_s", setup)
	return h, prewarm, nil
}

// traceServe assembles a serve run's spans from the generator's timing
// records — one window span per phase, one span per request under it —
// and writes the span file. The generator times every request whether or
// not the run is traced, so tracing adds nothing to the timed path.
func traceServe(cfg *config, rn *run, phases ...[]sample) error {
	tr := &tracer{t0: phases[0][0].due}
	for w, set := range phases {
		if len(set) == 0 {
			continue
		}
		start, end := set[0].due, set[0].end
		for _, s := range set {
			end = later(end, s.end)
		}
		win := tr.add("window", 0, w, start, end)
		for i, s := range set {
			tr.add("http."+classNames[s.class], win, i, s.due, s.end)
		}
	}
	rn.set("trace.overhead_frac", 0)
	return tr.write(cfg.spanPath(), cfg.workload, cfg.seed)
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// prewarm reduces every ladder once through the daemon and returns the
// responses, indexed like ladders.
func (h *harness) prewarm(ctx context.Context, ladders [][]byte) ([]response, error) {
	out := make([]response, len(ladders))
	for i, l := range ladders {
		r, err := h.do(ctx, &request{method: http.MethodPost, path: "/v1/reduce?" + ladderQuery, body: l}, -1)
		if err != nil {
			return nil, err
		}
		if r.status != http.StatusOK || r.key == "" {
			return nil, fmt.Errorf("pre-warm ladder %d: status %d: %s", i, r.status, r.body)
		}
		out[i] = r
	}
	return out, nil
}

// readSchedule draws serve-read's request mix: 55% hot reduce, 15% GET,
// 5% revalidating GET, 20% simulate, 5% batch of 8, keys Zipf(1.1) over
// the pre-warmed ladders. The popularity ranking is fixed (rank r is
// ladder 97·r mod 256), so every seed asks for each ladder size equally
// often; the seed draws the sequence.
func readSchedule(rng *rand.Rand, ladders [][]byte, n int) []request {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(ladders)-1))
	key := func() int { return int(zipf.Uint64()*97) % len(ladders) }
	simBody, _ := json.Marshal(map[string]any{ // numbers and strings always marshal
		"tEnd": ladderTEnd, "steps": ladderSteps, "integrator": "rk4",
		"input": map[string]any{"kind": "sin", "values": []float64{ladderAmp}, "freqHz": []float64{ladderHz}},
	})
	reqs := make([]request, n)
	for i := range reqs {
		k := key()
		p := rng.Float64()
		switch {
		case p < 0.55:
			reqs[i] = request{class: clsHot, method: http.MethodPost, path: "/v1/reduce?" + ladderQuery, body: ladders[k], ladder: k}
		case p < 0.70:
			reqs[i] = request{class: clsGet, method: http.MethodGet, ladder: k}
		case p < 0.75:
			reqs[i] = request{class: clsGet304, method: http.MethodGet, ladder: k}
		case p < 0.95:
			reqs[i] = request{class: clsSim, method: http.MethodPost, body: simBody, ladder: k}
		default:
			items := make([]int, batchItems)
			bodies := make([][]byte, batchItems)
			for j := range items {
				items[j] = key()
				bodies[j] = ladders[items[j]]
			}
			var frame bytes.Buffer
			if err := wire.WriteBatchRequest(&frame, bodies); err != nil {
				panic(err) // 8 in-memory items always frame
			}
			reqs[i] = request{class: clsBatch, method: http.MethodPost, path: "/v1/reduce/batch?" + ladderQuery,
				body: frame.Bytes(), items: items}
		}
	}
	return reqs
}

// bindDigests fills in the content addresses the by-key requests need,
// from the pre-warm responses.
func bindDigests(reqs []request, prewarm []response) {
	for i := range reqs {
		d := prewarm[reqs[i].ladder].key
		switch reqs[i].class {
		case clsGet:
			reqs[i].path = "/v1/roms/" + d
		case clsGet304:
			reqs[i].path = "/v1/roms/" + d
			reqs[i].inm = `"` + d + `"`
		case clsSim:
			reqs[i].path = "/v1/roms/" + d + "/simulate"
		}
	}
}

// reportServe computes the latency, goodput and per-layer daemon metrics
// of the low and high windows.
func reportServe(rn *run, sc serveConfig, low, high []sample, m1, m2, m3 *promtext.Scrape) {
	lat := func(set []sample, class int) []float64 {
		var out []float64
		for _, s := range set {
			if class < 0 || s.class == class {
				out = append(out, float64(s.latency().Nanoseconds())/1e6)
			}
		}
		return out
	}
	lowAll, highAll := lat(low, -1), lat(high, -1)
	rn.set("p50_ms", median(lowAll))
	rn.set("p95_ms", quantile(lowAll, 0.95))
	good := 0
	for _, s := range high {
		if s.ok && s.latency() <= sc.limit {
			good++
		}
	}
	rn.set("goodput_rps", float64(good)*sc.highRate/float64(len(high)))

	for c := 0; c < numClasses; c++ {
		rn.set("client."+classNames[c]+".p50_ms", median(lat(low, c)))
	}
	rn.set("tail.p99_ms", quantile(lowAll, 0.99))
	rn.set("tail.high_p50_ms", median(highAll))
	rn.set("tail.high_p95_ms", quantile(highAll, 0.95))
	rn.set("tail.high_p99_ms", quantile(highAll, 0.99))
	if len(high) > 1 {
		first, last := high[0].sent, high[0].sent
		for _, s := range high {
			if s.sent.Before(first) {
				first = s.sent
			}
			last = later(last, s.sent)
		}
		if span := last.Sub(first).Seconds(); span > 0 {
			rn.set("gen.achieved_rps", float64(len(high)-1)/span)
		}
	}
	maxLate := 0.0
	for _, set := range [][]sample{low, high} {
		for _, s := range set {
			if s.idle {
				maxLate = max(maxLate, float64(s.late.Nanoseconds())/1e6)
			}
		}
	}
	rn.set("gen.max_late_ms", maxLate)
	if maxLate > maxLateMs {
		fmt.Fprintf(os.Stderr, "avtmorbench: warning: the generator sent a request %.1f ms late (more than %d ms); the latencies include that delay\n", maxLate, maxLateMs)
	}

	// The daemon's time to produce a ROM answer — a reduction on the
	// write path, a cache or store hit on the read path — over both
	// windows.
	rn.set("build_s", histMeanMs(m1, m3, "avtmor_reduce_seconds")/1e3)
	rn.set("serve.queue_wait_ms_mean", histMeanMs(m2, m3, "avtmor_queue_wait_seconds"))
	rn.set("serve.queue_wait_p90_ms", histQuantileMs(m2, m3, "avtmor_queue_wait_seconds", 0.9))
	rn.set("serve.reduce_ms_mean", histMeanMs(m2, m3, "avtmor_reduce_seconds"))
	rn.set("serve.simulate_ms_mean", histMeanMs(m2, m3, "avtmor_simulate_seconds"))
	rn.set("serve.http_ms_mean", histMeanMs(m2, m3, "avtmor_http_request_seconds"))
	// The daemon's per-layer numbers come from inside its handlers; the
	// residual is the share of the client-side latency of both windows
	// that the handlers' wall time does not explain: the generator's wait
	// for a free connection, loopback TCP, and reading the response.
	if client := sum(lowAll) + sum(highAll); client > 0 {
		handlers := 1e3 * delta(m1, m3, "avtmor_http_request_seconds_sum")
		rn.set("trace.residual_frac", math.Abs(client-handlers)/client)
	}
	rn.set("serve.rejected", delta(m1, m3, "avtmor_rejected_total"))
	rn.set("serve.admission_rejected", delta(m1, m3, "avtmor_admission_rejected_total"))
	reds := delta(m1, m3, "avtmor_reductions_total")
	hits := delta(m1, m3, "avtmor_cache_hits_total")
	storeHits := delta(m1, m3, "avtmor_store_hits_total")
	rn.set("reducer.reductions", reds)
	rn.set("reducer.cache_hits", hits)
	rn.set("reducer.store_hits", storeHits)
	rn.set("reducer.evictions", delta(m1, m3, "avtmor_evictions_total"))
	if t := reds + hits + storeHits; t > 0 {
		rn.set("reducer.hit_ratio", hits/t)
	}
}

// checkModels are the check-set ladders, parsed, with the ROMs the
// daemon served for them, and the transients the check runs on both.
type checkModels struct {
	ids     []int
	texts   [][]byte
	bodies  [][]byte
	systems []*avtmor.System
	roms    []*avtmor.ROM

	full, res        []*avtmor.Result // the latest transient of each model
	fullT, romT      [][]float64      // per model, one wall time per timed sweep
	fullOde, romOde  odeStats         // the work of the first timed sweep
	timedSweepsTaken int
}

// prepareCheck parses the check-set netlists and served ROMs; a ROM that
// does not parse fails its check.
func prepareCheck(rn *run, set map[int]served) (*checkModels, error) {
	var ids []int
	for i := range set {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	cm := &checkModels{}
	for _, i := range ids {
		sys, err := avtmor.ParseNetlist(bytes.NewReader(set[i].netlist))
		if err != nil {
			return nil, fmt.Errorf("ladder %d: %w", i, err)
		}
		rom, err := avtmor.ReadROM(bytes.NewReader(set[i].body))
		if err != nil {
			rn.check(false, "ladder %d: served ROM does not parse: %v", i, err)
			continue
		}
		cm.ids = append(cm.ids, i)
		cm.texts = append(cm.texts, set[i].netlist)
		cm.bodies = append(cm.bodies, set[i].body)
		cm.systems = append(cm.systems, sys)
		cm.roms = append(cm.roms, rom)
	}
	n := len(cm.ids)
	cm.full, cm.res = make([]*avtmor.Result, n), make([]*avtmor.Result, n)
	cm.fullT, cm.romT = make([][]float64, n), make([][]float64, n)
	return cm, nil
}

// sweepsPerGroup is how many sweeps over the check set run at each of the
// run's three check points: before the low window (after one untimed
// sweep), between the windows, and after the high window. A model's
// transient time is the median of its timed sweeps; spreading them over
// the run keeps a stretch of host noise to a few of each model's samples.
const sweepsPerGroup = 2

// sweeps runs sweepsPerGroup sweeps (plus one untimed one first when
// timed is false, whose later sweeps are timed). It collects garbage
// first: a group allocates far less than the live heap, so no collection
// of the daemon's and the generator's heap lands inside the timed
// transients. It collects again at the end, so that the sweeps' garbage
// is not collected inside the load window that follows: in four runs
// each way, the first 5% of serve-read's high window had a p50 of up to
// 4.5× the rest of the window's without that collection, and of up to
// 1.9× with it.
func (cm *checkModels) sweeps(ctx context.Context, timed bool) error {
	runtime.GC()
	defer runtime.GC()
	if !timed {
		if err := cm.sweep(ctx, false); err != nil {
			return err
		}
	}
	for i := 0; i < sweepsPerGroup; i++ {
		if err := cm.sweep(ctx, true); err != nil {
			return err
		}
	}
	return nil
}

// sweep runs the ladder transient once on every full model, then once on
// every served ROM.
func (cm *checkModels) sweep(ctx context.Context, timed bool) error {
	first := timed && cm.timedSweepsTaken == 0
	if timed {
		cm.timedSweepsTaken++
	}
	one := func(m avtmor.Model, acc *odeStats, times *[]float64) (*avtmor.Result, error) {
		a0, t0 := heapAllocBytes(), time.Now()
		r, err := m.Simulate(ctx, ladderInput, ladderTEnd, avtmor.WithRK4(ladderSteps))
		dt := time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		if first {
			acc.seconds += dt
			acc.allocBytes += heapAllocBytes() - a0
			acc.steps += r.Steps
			acc.newton += r.NewtonIters
		}
		if timed {
			*times = append(*times, dt)
		}
		return r, nil
	}
	for k := range cm.systems {
		sys, err := avtmor.ParseNetlist(bytes.NewReader(cm.texts[k]))
		if err != nil {
			return err
		}
		r, err := one(sys, &cm.fullOde, &cm.fullT[k])
		if err != nil {
			return fmt.Errorf("ladder %d: full transient: %w", cm.ids[k], err)
		}
		cm.full[k] = r
	}
	for k := range cm.roms {
		rom, err := avtmor.ReadROM(bytes.NewReader(cm.bodies[k]))
		if err != nil {
			return err
		}
		r, err := one(rom, &cm.romOde, &cm.romT[k])
		if err != nil {
			return fmt.Errorf("ladder %d: served ROM transient: %w", cm.ids[k], err)
		}
		cm.res[k] = r
	}
	return nil
}

// finish checks each served ROM's transient against its full ladder's and
// reports the check set's transient times and summed order; a traced run
// also probes the netlist, romio and store layers on the same ladders.
func (cm *checkModels) finish(cfg *config, rn *run) error {
	if len(cm.roms) == 0 {
		rn.check(false, "no served ROM reached the accuracy check")
		return nil
	}
	bound := ladderBound
	if cfg.faults.tightenBound == "ladder" {
		bound = 1e-15
	}
	order := 0
	var fullT, romT float64
	for k, rom := range cm.roms {
		e := avtmor.MaxRelErr(cm.full[k], cm.res[k], 0)
		rn.check(e <= bound, "ladder %d: served ROM error %.3g exceeds bound %.3g", cm.ids[k], e, bound)
		order += rom.Order()
		fullT += median(cm.fullT[k])
		romT += median(cm.romT[k])
	}
	rn.set("ode.full_sim_s", fullT)
	rn.set("ode.rom_sim_s", romT)
	rn.set("rom_order", float64(order))
	rn.set("ode.full_steps", float64(cm.fullOde.steps))
	rn.set("ode.full_newton_iters", float64(cm.fullOde.newton))
	rn.set("ode.full_ms_per_step", cm.fullOde.msPerStep())
	rn.set("ode.full_alloc_mb", float64(cm.fullOde.allocBytes)/1e6)
	rn.set("ode.rom_ms_per_step", cm.romOde.msPerStep())
	rn.set("ode.rom_alloc_mb", float64(cm.romOde.allocBytes)/1e6)
	if !cfg.traced {
		return nil
	}
	if err := probeNetlist(rn, cm.texts); err != nil {
		return err
	}
	fresh := make([]*avtmor.System, len(cm.texts))
	for i, t := range cm.texts {
		var err error
		if fresh[i], err = avtmor.ParseNetlist(bytes.NewReader(t)); err != nil {
			return err
		}
	}
	probeFingerprint(rn, fresh)
	keys := make([]string, len(cm.systems))
	for i, sys := range cm.systems {
		keys[i] = avtmor.RequestKey(sys, ladderOpts...)
	}
	if err := probeROMIO(rn, cm.roms); err != nil {
		return err
	}
	return probeStore(cfg, rn, keys, cm.roms)
}
