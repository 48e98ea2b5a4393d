package promtext

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// FuzzParse: Parse never panics, and every document it accepts keeps
// the histogram promises callers rely on. Per histogram child (its
// label set without le), the buckets have distinct bounds, their
// counts are cumulative in bound order, the last bound is +Inf, and
// the +Inf count equals _count. The seeds are a real Registry
// exposition and truncated, reordered and duplicated variants of it.
func FuzzParse(f *testing.F) {
	r := NewRegistry()
	r.Counter("avtmor_fuzz_total", "a counter").Add(3)
	r.Counter("avtmor_fuzz_peer_total", "a labelled counter",
		Label{Name: "peer", Value: "node-a:9/\\\"x\"\n"}).Add(1)
	r.GaugeFunc("avtmor_fuzz_depth", "a gauge func", func() float64 { return 2.5 })
	h := r.Histogram("avtmor_fuzz_seconds", "a histogram", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		f.Fatal(err)
	}
	doc := sb.String()
	if _, err := Parse(strings.NewReader(doc)); err != nil {
		f.Fatalf("seed exposition does not parse: %v", err)
	}
	lines := strings.SplitAfter(doc, "\n")
	f.Add(doc)
	f.Add(doc[:len(doc)/2])
	f.Add(strings.Join(lines[:len(lines)-3], ""))
	reversed := append([]string(nil), lines...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	f.Add(strings.Join(reversed, ""))
	f.Add(doc + doc)
	for i, line := range lines {
		if strings.HasPrefix(line, "avtmor_fuzz_seconds_bucket") {
			f.Add(strings.Join(lines[:i+1], "") + line + strings.Join(lines[i+1:], ""))
			break
		}
	}

	f.Fuzz(func(t *testing.T, doc string) {
		scrape, err := Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		for _, name := range scrape.Families() {
			if fam := scrape.Family(name); fam.Type == KindHistogram {
				checkHistogram(t, fam)
			}
		}
	})
}

// checkHistogram asserts the histogram invariants on one parsed
// family, independently of Parse's own validation.
func checkHistogram(t *testing.T, fam *Family) {
	t.Helper()
	type bucket struct{ le, count float64 }
	type hchild struct {
		buckets []bucket
		count   float64
		hasCnt  bool
	}
	children := map[string]*hchild{}
	for _, smp := range fam.Samples {
		var base []Label
		le := math.NaN()
		for _, l := range smp.Labels {
			if l.Name == "le" {
				le, _ = parseValue(l.Value)
			} else {
				base = append(base, l)
			}
		}
		key := labelKey(base)
		c := children[key]
		if c == nil {
			c = &hchild{}
			children[key] = c
		}
		switch smp.Name {
		case fam.Name + "_bucket":
			c.buckets = append(c.buckets, bucket{le, smp.Value})
		case fam.Name + "_count":
			c.count, c.hasCnt = smp.Value, true
		}
	}
	for key, c := range children {
		if !c.hasCnt || len(c.buckets) == 0 {
			t.Fatalf("accepted histogram %s{%s} without buckets or _count", fam.Name, key)
		}
		sort.Slice(c.buckets, func(i, j int) bool { return c.buckets[i].le < c.buckets[j].le })
		for i, b := range c.buckets {
			if math.IsNaN(b.le) {
				t.Fatalf("accepted histogram %s{%s} with a NaN or missing le", fam.Name, key)
			}
			if i == 0 {
				continue
			}
			prev := c.buckets[i-1]
			if !(b.le > prev.le) || !(b.count >= prev.count) {
				t.Fatalf("accepted histogram %s{%s} whose buckets are not cumulative: %v", fam.Name, key, c.buckets)
			}
		}
		last := c.buckets[len(c.buckets)-1]
		if !math.IsInf(last.le, 1) || last.count != c.count {
			t.Fatalf("accepted histogram %s{%s} whose +Inf bucket %v does not equal _count %v", fam.Name, key, last, c.count)
		}
	}
}
