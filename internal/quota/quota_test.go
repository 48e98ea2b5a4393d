package quota

import (
	"testing"
	"time"
)

// fakeClock is a settable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLimiter(specs map[string]Spec) (*Limiter, *fakeClock) {
	l := New(specs)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l.SetClock(clk.now)
	return l, clk
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("5:20")
	if err != nil || spec.Rate != 5 || spec.Burst != 20 {
		t.Fatalf("ParseSpec(5:20) = %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "5", "0:10", "-1:10", "5:0", "x:y"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestBurstThenRefill(t *testing.T) {
	l, clk := newTestLimiter(map[string]Spec{"alice": {Rate: 1, Burst: 3}})
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("alice", 1); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, retry := l.Allow("alice", 1)
	if ok {
		t.Fatal("request over burst admitted")
	}
	if retry < time.Second || retry > 2*time.Second {
		t.Fatalf("retry = %v; want ~1s", retry)
	}
	clk.advance(time.Second)
	if ok, _ := l.Allow("alice", 1); !ok {
		t.Fatal("refilled token not granted")
	}
}

func TestDefaultBucketShared(t *testing.T) {
	l, _ := newTestLimiter(map[string]Spec{"": {Rate: 1, Burst: 2}})
	if ok, _ := l.Allow("", 1); !ok {
		t.Fatal("unkeyed request rejected within burst")
	}
	// An unconfigured key drains the same default bucket.
	if ok, _ := l.Allow("stranger", 1); !ok {
		t.Fatal("unknown key rejected within burst")
	}
	if ok, _ := l.Allow("", 1); ok {
		t.Fatal("default bucket not shared: third token granted")
	}
}

func TestNoDefaultUnlimited(t *testing.T) {
	l, _ := newTestLimiter(map[string]Spec{"vip": {Rate: 1, Burst: 1}})
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("stranger", 1); !ok {
			t.Fatal("unconfigured key limited despite no default bucket")
		}
	}
	var nilL *Limiter
	if ok, _ := nilL.Allow("anyone", 1); !ok {
		t.Fatal("nil limiter rejected")
	}
}

func TestOversizedChargeClamped(t *testing.T) {
	l, clk := newTestLimiter(map[string]Spec{"": {Rate: 10, Burst: 5}})
	// A charge above burst is clamped: admitted when the bucket is full,
	// not rejected forever.
	if ok, _ := l.Allow("", 50); !ok {
		t.Fatal("oversized charge rejected on full bucket")
	}
	if ok, _ := l.Allow("", 50); ok {
		t.Fatal("second oversized charge admitted on empty bucket")
	}
	clk.advance(time.Second) // 10 tokens back, capped at 5
	if ok, _ := l.Allow("", 50); !ok {
		t.Fatal("oversized charge rejected after refill")
	}
}

func TestFractionalCharge(t *testing.T) {
	l, _ := newTestLimiter(map[string]Spec{"": {Rate: 1, Burst: 2}})
	// Charges below one token round up: an "almost free" request still
	// costs a token.
	if ok, _ := l.Allow("", 0.1); !ok {
		t.Fatal("fractional charge rejected")
	}
	if ok, _ := l.Allow("", 0.1); !ok {
		t.Fatal("second fractional charge rejected")
	}
	if ok, _ := l.Allow("", 0.1); ok {
		t.Fatal("bucket should be empty after two min-1 charges")
	}
}
