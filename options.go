package avtmor

import (
	"fmt"
	"math"
	"strings"

	"avtmor/internal/core"
)

// config is the resolved option set of one Reduce call.
type config struct {
	opt     core.Options
	autoTol float64 // > 0 selects Hankel-based order selection
}

// Option configures a reduction (functional options for Reduce,
// ReduceNORM, and Reducer.Reduce).
type Option func(*config)

// WithOrders sets the matched moment counts k1, k2, k3 of H1(s),
// A2(H2)(s), A3(H3)(s). Zero skips an order; at least one must be
// positive unless WithAutoOrders is used.
func WithOrders(k1, k2, k3 int) Option {
	return func(c *config) { c.opt.K1, c.opt.K2, c.opt.K3 = k1, k2, k3; c.autoTol = 0 }
}

// WithAutoOrders selects the moment counts automatically from the
// Hankel singular values of the linear part (the paper's §4 first
// bullet), with tol the relative truncation threshold (0 selects
// 1e-4). Requires a dense G1 and a strictly stable linear part.
// Mutually exclusive with WithOrders: whichever comes last wins, and
// any earlier explicit counts are discarded (they also stay out of
// the Reducer cache key, so auto-order requests dedupe regardless of
// what WithOrders preceded them).
func WithAutoOrders(tol float64) Option {
	return func(c *config) {
		if tol <= 0 {
			tol = 1e-4
		}
		c.autoTol = tol
		c.opt.K1, c.opt.K2, c.opt.K3 = 0, 0, 0
	}
}

// WithExpansion sets the (real) moment-expansion frequency s0 — 0 is
// DC matching; systems with a structurally singular G1 must expand off
// DC — plus optional further points for multipoint moment matching of
// H1 and H2.
func WithExpansion(s0 float64, extra ...float64) Option {
	return func(c *config) { c.opt.S0, c.opt.ExtraPoints = s0, extra }
}

// WithParallel fans the independent moment generators out over
// goroutines — one per expansion point plus one per Volterra-3 branch.
// The candidate ordering, and therefore the ROM, is identical to the
// serial path; only wall-clock changes.
func WithParallel() Option {
	return func(c *config) { c.opt.Parallel = true }
}

// WithDropTol sets the deflation tolerance of the rank-revealing
// orthonormalization (0 selects the method default: 1e-8 for the
// associated transform, 1e-14 for NORM).
func WithDropTol(tol float64) Option {
	return func(c *config) { c.opt.DropTol = tol }
}

func buildConfig(opts []Option) *config {
	c := &config{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// artifactEpoch names the numerics that produce artifact bytes. Bump it
// with any change that alters the serialized ROM of an unchanged
// request — a format change, a different rounding, a different
// candidate order — and then re-record the golden digest table
// (TestArtifactEpochGolden). Because the epoch is part of every cache
// key, a store, a fleet or a client that holds bytes from an older
// epoch never serves them under a new key.
const artifactEpoch = 2

// cacheKey canonicalizes a reduction request for the Reducer: the
// artifact epoch, the system fingerprint and every option that can
// change the resulting ROM. Parallel is deliberately excluded — it
// changes wall-clock, never the artifact. Float options are keyed by their exact bit patterns.
func (c *config) cacheKey(sys *System, method string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "e=%d|fp=%016x|m=%s|k=%d,%d,%d|auto=%016x|s0=%016x|drop=%016x|xp=",
		artifactEpoch, sys.Fingerprint(), method, c.opt.K1, c.opt.K2, c.opt.K3,
		math.Float64bits(c.autoTol), math.Float64bits(c.opt.S0),
		math.Float64bits(c.opt.DropTol))
	for _, p := range c.opt.ExtraPoints {
		fmt.Fprintf(&b, "%016x,", math.Float64bits(p))
	}
	return b.String()
}
