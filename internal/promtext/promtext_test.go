package promtext

import (
	"math"
	"strings"
	"testing"
)

// Count returns the total number of observations: what a concurrent
// writer test checks against the observations it made.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total + h.inf.Load()
}

// TestWriterRoundTrip renders a registry with all three kinds and
// re-reads it through Parse: the writer's output must satisfy the
// reader's validation, and values must survive.
func TestWriterRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("avtmor_test_total", "a counter")
	c.Add(41)
	c.Add(1)
	r.GaugeFunc("avtmor_test_depth", "a gauge", func() float64 { return 3.5 })
	r.CounterFunc("avtmor_test_peer_total", "per-peer counter",
		func() float64 { return 7 }, Label{Name: "peer", Value: "node-b:9/\\\"x\""})
	h := r.Histogram("avtmor_test_seconds", "a histogram", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(100)

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	doc := sb.String()
	scrape, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse of writer output: %v\n%s", err, doc)
	}
	if v, ok := scrape.Value("avtmor_test_total"); !ok || v != 42 {
		t.Fatalf("counter = %v, %v; want 42, true", v, ok)
	}
	if v, ok := scrape.Value("avtmor_test_depth"); !ok || v != 3.5 {
		t.Fatalf("gauge = %v, %v; want 3.5, true", v, ok)
	}
	if v, ok := scrape.Value("avtmor_test_peer_total"); !ok || v != 7 {
		t.Fatalf("labeled counter = %v, %v; want 7, true", v, ok)
	}
	fam := scrape.Family("avtmor_test_seconds")
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", fam)
	}
	if v, ok := scrape.Value("avtmor_test_seconds_count"); !ok || v != 4 {
		t.Fatalf("histogram count = %v, %v; want 4, true", v, ok)
	}
	if v, _ := scrape.Value("avtmor_test_seconds_sum"); math.Abs(v-102.55) > 1e-9 {
		t.Fatalf("histogram sum = %v; want 102.55", v)
	}
	// The labeled peer value must round-trip its escapes.
	pf := scrape.Family("avtmor_test_peer_total")
	if got := pf.Samples[0].Labels[0].Value; got != "node-b:9/\\\"x\"" {
		t.Fatalf("label value round-trip: %q", got)
	}
}

func TestWriterStableOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b")
	r.Counter("a_total", "a")
	var first, second strings.Builder
	r.WriteTo(&first)
	r.WriteTo(&second)
	if first.String() != second.String() {
		t.Fatal("repeated scrapes differ")
	}
	if bi, ai := strings.Index(first.String(), "b_total"), strings.Index(first.String(), "a_total"); bi > ai {
		t.Fatal("registration order not preserved")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	var sb strings.Builder
	r.WriteTo(&sb)
	doc := sb.String()
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2"} 2`,
		`h_seconds_bucket{le="+Inf"} 3`,
		`h_seconds_count 3`,
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("missing %q in:\n%s", want, doc)
		}
	}
}

func TestOnScrapeRunsFirst(t *testing.T) {
	r := NewRegistry()
	var snapshot float64
	r.OnScrape(func() { snapshot = 9 })
	r.GaugeFunc("g", "", func() float64 { return snapshot })
	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "g 9") {
		t.Fatalf("prelude did not run before gauge func:\n%s", sb.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(r *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.Counter("0bad", "") }},
		{"bad label name", func(r *Registry) { r.Counter("ok_total", "", Label{Name: "__reserved", Value: "x"}) }},
		{"kind clash", func(r *Registry) {
			r.Counter("x_total", "")
			r.GaugeFunc("x_total", "", func() float64 { return 0 })
		}},
		{"duplicate label set", func(r *Registry) {
			r.Counter("y_total", "", Label{Name: "a", Value: "1"})
			r.Counter("y_total", "", Label{Name: "a", Value: "1"})
		}},
		{"empty histogram bounds", func(r *Registry) { r.Histogram("h", "", nil) }},
		{"unsorted histogram bounds", func(r *Registry) { r.Histogram("h", "", []float64{2, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("counter = %d; want 5", c.Value())
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, doc string
	}{
		{"metadata after samples", "x_total 1\n# TYPE x_total counter\n"},
		{"bad name", "9bad 1\n"},
		{"bad value", "x_total one\n"},
		{"duplicate sample", "x_total 1\nx_total 2\n"},
		{"negative counter", "# TYPE x_total counter\nx_total -1\n"},
		{"unknown type", "# TYPE x gibberish\n"},
		{"unterminated labels", `x{a="1" 2` + "\n"},
		{"unquoted label value", "x{a=1} 2\n"},
		{"histogram missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"histogram non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"histogram count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
		{"histogram missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("accepted invalid doc:\n%s", tc.doc)
			}
		})
	}
}

func TestParseAccepts(t *testing.T) {
	doc := `# free-form comment
# HELP x_total helpful "text" with \ backslash
# TYPE x_total counter
x_total{instance="a"} 1 1700000000000
x_total{instance="b"} 2
# TYPE g gauge
g -0.5
untyped_metric 7
`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if v, ok := s.Value("x_total"); !ok || v != 3 {
		t.Fatalf("x_total = %v, %v; want 3, true", v, ok)
	}
	if got := s.Family("untyped_metric").Type; got != "untyped" {
		t.Fatalf("untyped family type = %q", got)
	}
	if len(s.Families()) != 3 {
		t.Fatalf("families = %v", s.Families())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 10})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 20))
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("count = %d; want 4000", h.Count())
	}
	var sb strings.Builder
	r.WriteTo(&sb)
	if _, err := Parse(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("round-trip after concurrent observes: %v", err)
	}
}
