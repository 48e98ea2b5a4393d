// Package quota implements per-key token-bucket rate limiting for the
// avtmor serving tier. Each API key maps to a bucket refilled at a
// steady rate up to a burst ceiling; a request is admitted when its
// charge fits in the bucket, and otherwise rejected along with the
// wait that would make it fit — the serving tier turns that wait into
// a Retry-After header.
//
// The key "" names the default bucket: requests with no API key, and
// requests whose key has no configured bucket, all share it. With no
// default configured, unknown keys are unlimited (quota enforcement is
// opt-in per deployment).
package quota

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Spec configures one bucket: Rate tokens per second refill, Burst
// tokens capacity.
type Spec struct {
	Rate  float64
	Burst float64
}

// ParseSpec parses "rate:burst" (e.g. "5:20"). Rate must be positive;
// burst must be >= 1.
func ParseSpec(s string) (Spec, error) {
	rateText, burstText, ok := strings.Cut(s, ":")
	if !ok {
		return Spec{}, fmt.Errorf("quota spec %q: want rate:burst", s)
	}
	rate, err := strconv.ParseFloat(rateText, 64)
	if err != nil || rate <= 0 {
		return Spec{}, fmt.Errorf("quota spec %q: bad rate", s)
	}
	burst, err := strconv.ParseFloat(burstText, 64)
	if err != nil || burst < 1 {
		return Spec{}, fmt.Errorf("quota spec %q: bad burst", s)
	}
	return Spec{Rate: rate, Burst: burst}, nil
}

// bucket is one token bucket. tokens is the balance as of last.
type bucket struct {
	spec   Spec
	tokens float64
	last   time.Time
}

// Limiter enforces per-key buckets. The zero value is unusable; use
// New.
type Limiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
	now     func() time.Time   // injectable for tests
}

// New builds a limiter from key→spec config. The "" key, if present,
// is the default bucket shared by unkeyed requests and keys without
// their own entry.
func New(specs map[string]Spec) *Limiter {
	buckets := map[string]*bucket{}
	for key, spec := range specs {
		buckets[key] = &bucket{spec: spec, tokens: spec.Burst}
	}
	return &Limiter{buckets: buckets, now: time.Now}
}

// SetClock replaces the limiter's time source (tests only).
func (l *Limiter) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// Allow charges n tokens against key's bucket. Charges larger than the
// bucket's burst are clamped to the burst, so an oversized request is
// rate-limited rather than permanently unadmittable. When the charge
// doesn't fit, Allow returns false and the wait until it would.
//
// A key with no bucket of its own is charged against the default ""
// bucket; with no default either, the request is admitted untouched.
func (l *Limiter) Allow(key string, n float64) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	if n < 1 {
		n = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		b = l.buckets[""]
	}
	if b == nil {
		return true, 0
	}
	if n > b.spec.Burst {
		n = b.spec.Burst
	}
	now := l.now()
	if b.last.IsZero() {
		b.last = now
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * b.spec.Rate
		if b.tokens > b.spec.Burst {
			b.tokens = b.spec.Burst
		}
		b.last = now
	}
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	deficit := n - b.tokens
	wait := time.Duration(deficit / b.spec.Rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}
