// Package query is the reduce-request grammar both ends of the wire
// speak: the URL query parameters that select reduction options and
// the body sniff that distinguishes netlist text from a serialized
// System. The serve package uses it to parse incoming requests; the
// avtmorclient package uses the *same* code to compute the canonical
// cache key client-side, so a ring-aware client places a request on
// the identical owner the server would — any drift between the two
// parsers would silently break client-side placement and the key
// verification that guards it.
package query

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"avtmor"
)

// Request is a parsed reduce request: the option set that (with the
// system) determines the canonical cache key, the method switch, and
// the per-request deadline. The cost-model fields (K1..K3, Auto,
// Shifts) mirror the order selection so the serving tier can price a
// request before running it — they do not affect the cache key, which
// is derived from Opts alone.
type Request struct {
	Opts    []avtmor.Option
	Norm    bool
	Timeout time.Duration

	// K1, K2, K3 are the explicit moment counts, zero when Auto.
	K1, K2, K3 int
	// Auto reports Hankel auto-order selection (order unknown until
	// the reduction runs).
	Auto bool
	// Shifts is the number of expansion points: 1 plus any xp extras.
	Shifts int
}

// Key returns the canonical cache key of sys under this request — the
// content identity that addresses the artifact fleet-wide.
func (r *Request) Key(sys *avtmor.System) string {
	if r.Norm {
		return avtmor.RequestKeyNORM(sys, r.Opts...)
	}
	return avtmor.RequestKey(sys, r.Opts...)
}

// System sniffs a request body: serialized System bytes, or netlist
// text for anything that does not carry the System magic.
func System(body []byte) (*avtmor.System, error) {
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, errors.New("empty body; POST a netlist or a serialized System")
	}
	sys, err := avtmor.ReadSystem(bytes.NewReader(body))
	if err == nil {
		return sys, nil
	}
	if !errors.Is(err, avtmor.ErrBadSystemMagic) {
		// It was a System stream — just a broken one. Netlist parsing
		// would only produce a misleading error.
		return nil, err
	}
	return avtmor.ParseNetlist(bytes.NewReader(body))
}

// Parse maps reduce query parameters to engine options.
//
// Parameters (all optional):
//
//	k1,k2,k3     moment counts (WithOrders)
//	auto         Hankel auto-order tolerance (WithAutoOrders); the
//	             default when no k1/k2/k3 is given either
//	s0           real expansion frequency, xp=f1,f2,… extra points
//	droptol      deflation tolerance
//	solver       auto|dense|sparse
//	parallel     1/true fans moment generation out over goroutines
//	method       assoc (default) | norm
//	timeout      per-request deadline (Go duration, e.g. 30s)
//
// Every float parameter (auto, s0, each xp entry, droptol) must be
// finite, and any other parameter name is an error: a misspelt or
// undocumented option must not quietly select the default reduction
// under a different content address than the one the caller meant.
func Parse(q url.Values) (*Request, error) {
	for _, name := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(paramNames, name) {
			return nil, errf("unknown parameter %q (want %s)", name, strings.Join(paramNames, ", "))
		}
	}
	req := &Request{}
	getInt := func(name string) (int, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, false, errf("parameter %s: %v", name, err)
		}
		return n, true, nil
	}
	getFloat := func(name string) (float64, bool, error) {
		v := q.Get(name)
		if v == "" {
			return 0, false, nil
		}
		f, err := parseFinite(name, v)
		return f, err == nil, err
	}
	getBool := func(name string) (bool, error) {
		switch v := q.Get(name); v {
		case "", "0", "false":
			return false, nil
		case "1", "true":
			return true, nil
		default:
			return false, errf("parameter %s: want 1/true or 0/false, got %q", name, v)
		}
	}

	k1, hasK1, err := getInt("k1")
	if err != nil {
		return nil, err
	}
	k2, hasK2, err := getInt("k2")
	if err != nil {
		return nil, err
	}
	k3, hasK3, err := getInt("k3")
	if err != nil {
		return nil, err
	}
	hasK := hasK1 || hasK2 || hasK3
	if k1 < 0 || k2 < 0 || k3 < 0 {
		return nil, errf("moment counts must be non-negative, got k1=%d k2=%d k3=%d", k1, k2, k3)
	}
	auto, hasAuto, err := getFloat("auto")
	if err != nil {
		return nil, err
	}
	switch {
	case hasAuto && hasK:
		return nil, errf("auto and k1/k2/k3 are mutually exclusive")
	case hasAuto:
		req.Opts = append(req.Opts, avtmor.WithAutoOrders(auto))
		req.Auto = true
	case hasK:
		if k1+k2+k3 == 0 {
			return nil, errf("explicit orders need at least one positive count (or drop them for auto selection)")
		}
		req.Opts = append(req.Opts, avtmor.WithOrders(k1, k2, k3))
		req.K1, req.K2, req.K3 = k1, k2, k3
	default:
		// No order selection at all: pick them from the Hankel decay.
		req.Opts = append(req.Opts, avtmor.WithAutoOrders(0))
		req.Auto = true
	}

	s0, hasS0, err := getFloat("s0")
	if err != nil {
		return nil, err
	}
	var extra []float64
	if xp := q.Get("xp"); xp != "" {
		for _, part := range strings.Split(xp, ",") {
			f, err := parseFinite("xp", strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			extra = append(extra, f)
		}
	}
	if hasS0 || len(extra) > 0 {
		req.Opts = append(req.Opts, avtmor.WithExpansion(s0, extra...))
	}
	req.Shifts = 1 + len(extra)

	if tol, ok, err := getFloat("droptol"); err != nil {
		return nil, err
	} else if ok {
		req.Opts = append(req.Opts, avtmor.WithDropTol(tol))
	}
	if par, err := getBool("parallel"); err != nil {
		return nil, err
	} else if par {
		req.Opts = append(req.Opts, avtmor.WithParallel())
	}
	switch v := q.Get("solver"); v {
	case "", "auto":
	case "dense":
		req.Opts = append(req.Opts, avtmor.WithSolver(avtmor.SolverDense))
	case "sparse":
		req.Opts = append(req.Opts, avtmor.WithSolver(avtmor.SolverSparse))
	default:
		return nil, errf("parameter solver: want auto, dense, or sparse, got %q", v)
	}
	switch v := q.Get("method"); v {
	case "", "assoc":
	case "norm":
		req.Norm = true
	default:
		return nil, errf("parameter method: want assoc or norm, got %q", v)
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, errf("parameter timeout: want a positive Go duration, got %q", v)
		}
		req.Timeout = d
	}
	return req, nil
}

// paramNames are the parameters Parse reads.
var paramNames = []string{"k1", "k2", "k3", "auto", "s0", "xp", "droptol", "solver", "parallel", "method", "timeout"}

// parseFinite parses a float parameter and refuses NaN and ±Inf, which
// strconv.ParseFloat accepts and no reduction option gives a meaning.
func parseFinite(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, errf("parameter %s: %v", name, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, errf("parameter %s: want a finite number, got %q", name, v)
	}
	return f, nil
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
