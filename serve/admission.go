package serve

// Cost-aware admission, the server's one load gate: price a request
// from its parsed input before it computes anything, and admit against
// a concurrent cost budget instead of a job count. Counting jobs
// treats a 3-state clipper and a 2000-state multipoint reduce as
// equals, so a burst of expensive requests occupies every slot and
// starves the cheap traffic behind it; pricing by the moment-generation
// work (the same expansion-factor economics the reducer's own cost
// model uses to pick its solver) lets cheap requests keep flowing while
// expensive ones wait their turn. An admitted request computes on its
// own request goroutine.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"avtmor"
	"avtmor/internal/query"
	"avtmor/internal/quota"
)

// Admission/quota headers.
const (
	// HeaderCost carries the server's cost estimate for the request, in
	// admission units, on every priced response (success or rejection).
	HeaderCost = "X-Avtmor-Cost"
	// HeaderAPIKey identifies the client for per-key quota buckets.
	// Absent or unknown keys share the default bucket.
	HeaderAPIKey = "X-Avtmor-Api-Key"
)

// nominalAutoOrder prices auto-order requests: the order is unknown
// until the Hankel decay is inspected, so admission assumes the
// reducer's typical pick. Overcharging an easy system only delays it;
// the budget is released when the work finishes either way.
const nominalAutoOrder = 6

// costDivisor converts moment-generation work (solve triangles ×
// states) into admission units; chosen so the smallest netlists price
// at 1 unit and a 2000-state multipoint reduce prices in the hundreds.
const costDivisor = 4096

// estimateCost prices one reduce request in admission units from its
// parsed system and options. The driver is moment generation: per
// expansion shift, one factorization plus k block solves over a matrix
// with nnz + 4n working nonzeros (the Jacobian plus the E/G bordering
// the solver actually factors), so cost scales with (nnz+4n)·k·shifts.
// The +1 floor keeps every request visible to the budget.
func estimateCost(sys *avtmor.System, req *query.Request) int64 {
	k := req.K1 + req.K2 + req.K3
	if req.Auto {
		k = nominalAutoOrder
	}
	if k < 1 {
		k = 1
	}
	shifts := req.Shifts
	if shifts < 1 {
		shifts = 1
	}
	n := int64(sys.States())
	nnz := int64(sys.Nonzeros())
	work := (nnz + 4*n) * int64(k) * int64(shifts)
	return 1 + work/costDivisor
}

// simulateCost prices a simulation: integration work is step-count ×
// ROM order, tiny next to a reduction of the same system, but a
// dopri5 run over a large window still deserves more than a clipper
// reduce.
func simulateCost(order, steps int) int64 {
	if steps < 1 {
		steps = 4000
	}
	return 1 + int64(order)*int64(steps)/(costDivisor*16)
}

// Admission failures that are not the request's own context.
var (
	// errOverBudget: the request's cost did not fit the concurrent
	// budget within admitWindow.
	errOverBudget = errors.New("serve: admission budget exhausted")
	// errClosed: Close began before the request was admitted.
	errClosed = errors.New("serve: server is shutting down")
)

// admission is the concurrent cost budget. admit reserves units for
// the lifetime of one request's compute; requests that do not fit wait
// until running work releases units, bounded by the caller's context.
//
// Fairness: a heavy request (cost > budget/8) may hold at most 7/8 of
// the budget, so one slice is always reserved for cheap traffic — an
// expensive burst queues behind itself while clippers keep flowing.
// An idle server admits anything (a request dearer than the whole
// budget must still be able to run alone).
//
// Shutdown: close turns every waiter and every later request away with
// errClosed, then waits for admitted work to release its units. Every
// cost is at least 1, so inUse counts the admitted work still running,
// and because admission and that count share mu, nothing is admitted
// once close has started waiting.
type admission struct {
	budget int64
	mu     sync.Mutex
	cond   *sync.Cond
	inUse  int64 // guarded by mu
	closed bool  // guarded by mu
}

func newAdmission(budget int64) *admission {
	a := &admission{budget: budget}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// heavyCap is the reservation ceiling for heavy requests: 7/8 of the
// budget, keeping one slice free for cheap traffic.
func (a *admission) heavyCap() int64 { return a.budget - a.budget/8 }

// fits reports whether a request of the given cost may start now.
// The caller holds a.mu.
func (a *admission) fits(cost int64) bool { // holds a.mu
	if a.inUse == 0 {
		return true // an idle server serves anything, however dear
	}
	limit := a.budget
	if cost > a.budget/8 {
		limit = a.heavyCap()
	}
	return a.inUse+cost <= limit
}

// reserve books cost units and returns their release, which must be
// called exactly once when the request's compute finishes (later calls
// are no-ops). The caller holds a.mu.
func (a *admission) reserve(cost int64) (release func()) { // holds a.mu
	a.inUse += cost
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inUse -= cost
			a.cond.Broadcast()
			a.mu.Unlock()
		})
	}
}

// admit reserves cost units, waiting until they fit. It fails with
// ctx's error when ctx ends first, and with errClosed once close has
// begun.
func (a *admission) admit(ctx context.Context, cost int64) (release func(), err error) {
	// A context door: wake the cond loop when the caller gives up.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		switch {
		case a.closed:
			return nil, errClosed
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case a.fits(cost):
			return a.reserve(cost), nil
		}
		a.cond.Wait()
	}
}

// tryAdmit reserves cost units only if they fit right now.
func (a *admission) tryAdmit(cost int64) (release func(), ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed || !a.fits(cost) {
		return nil, false
	}
	return a.reserve(cost), true
}

// used returns the units currently reserved (the admission gauge).
func (a *admission) used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inUse
}

// close turns away every waiting and later request with errClosed and
// returns once all admitted work has released its units.
func (a *admission) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.cond.Broadcast()
	for a.inUse > 0 {
		a.cond.Wait()
	}
}

// admitWindow bounds how long an over-budget request waits for units
// before shedding with 429 — long enough to ride out a short burst,
// short enough that the client's retry governs, not our queue.
const admitWindow = 2 * time.Second

// admit is the gate every reduce, simulate and batch item passes before
// it computes: it reserves cost units, waiting until they fit or until
// the first of ctx (the client's connection and the request's own
// deadline) and admitWindow ends. It fails with errOverBudget when the
// window ends first, errClosed during shutdown, or ctx's error;
// admitStatus maps each to its status. The wait of every admitted
// request lands in avtmor_queue_wait_seconds.
func (s *Server) admit(ctx context.Context, cost int64) (release func(), err error) {
	start := time.Now()
	wctx, cancel := context.WithTimeout(ctx, admitWindow)
	defer cancel()
	release, err = s.adm.admit(wctx, cost)
	switch {
	case err == nil:
		s.queueWait.Observe(time.Since(start).Seconds())
	case errors.Is(err, errClosed):
		// Reported as is.
	case ctx.Err() != nil:
		err = ctx.Err()
	default:
		s.admissionRejected.Add(1)
		err = errOverBudget
	}
	return release, err
}

// admitStatus maps an admission failure of a request of the given cost
// to its status: over budget → 429, shutdown → 503, the request's own
// deadline → 504, client gone → 499 (nginx's convention; the client
// never sees it). It is the one taxonomy both the single-request and
// the per-item batch paths speak.
func (s *Server) admitStatus(err error, cost int64) (int, string) {
	switch {
	case errors.Is(err, errOverBudget):
		return http.StatusTooManyRequests,
			fmt.Sprintf("admission budget exhausted (request cost %d of %d), retry later", cost, s.adm.budget)
	case errors.Is(err, errClosed):
		return http.StatusServiceUnavailable, "shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded"
	default:
		return 499, "client canceled"
	}
}

// admitted is admit for a single request: on failure it answers the
// status itself — a 429 carries a Retry-After scaled by the request's
// share of the budget — and returns a nil release.
func (s *Server) admitted(ctx context.Context, w http.ResponseWriter, cost int64) (release func(), ok bool) {
	release, err := s.admit(ctx, cost)
	if err == nil {
		return release, true
	}
	code, msg := s.admitStatus(err, cost)
	if code == http.StatusTooManyRequests {
		// A clipper retries in a second, a fleet-filling multipoint
		// reduce backs off harder.
		w.Header().Set("Retry-After", strconv.FormatInt(1+4*cost/s.adm.budget, 10))
	}
	s.httpError(w, code, "%s", msg)
	return nil, false
}

// checkQuota charges the request's API key n tokens, answering 429
// with Retry-After itself when the bucket is dry. Forwarded peer
// requests bypass quotas — the entry node already charged the client.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request, n float64) bool {
	if s.quotas == nil || r.Header.Get(HeaderForwarded) != "" {
		return true
	}
	ok, retry := s.quotas.Allow(r.Header.Get(HeaderAPIKey), n)
	if ok {
		return true
	}
	s.quotaRejected.Add(1)
	secs := int64(retry / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	s.httpError(w, http.StatusTooManyRequests, "quota exhausted, retry in %ds", secs)
	return false
}

// setCost stamps the admission estimate on the response.
func setCost(w http.ResponseWriter, cost int64) {
	w.Header().Set(HeaderCost, fmt.Sprintf("%d", cost))
}

// QuotaSpec re-exports quota.Spec for Config literals.
type QuotaSpec = quota.Spec
