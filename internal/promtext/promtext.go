// Package promtext is a dependency-free writer and validating reader
// for the Prometheus text exposition format (version 0.0.4) — the
// subset the avtmor serving tier needs: counters, gauges, and
// cumulative histograms, with optional constant label sets per child.
//
// The writer side is a Registry: metrics are registered once (value
// cells, value functions, or histograms), and WriteTo renders the
// whole registry as one exposition document in registration order, so
// repeated scrapes of an unchanged registry are textually stable. The
// reader side (Parse) validates a scraped document — metadata
// ordering, name/label syntax, histogram bucket invariants — and is
// what the CI smoke and the docs drift-guard test use to hold the
// emitted surface to the documented one.
//
// Deliberately not implemented: summaries, exemplars, timestamps,
// OpenMetrics framing, and runtime label cardinality (labels are fixed
// at registration; a new label set is a new registered child).
package promtext

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric kinds rendered in # TYPE lines.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one constant name/value pair attached to a metric child at
// registration time.
type Label struct {
	Name, Value string
}

// Registry holds registered metric families and renders them as one
// Prometheus text exposition document.
type Registry struct {
	mu       sync.Mutex
	families []*family          // guarded by mu; registration order
	byName   map[string]*family // guarded by mu
	preludes []func()           // guarded by mu; run at the start of every WriteTo
}

// family is one metric name: its metadata and its children (one per
// label set).
type family struct {
	name, help, kind string
	children         []child
}

type child interface {
	labels() []Label
	write(sb *strings.Builder, fam *family)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnScrape registers a hook that runs at the start of every WriteTo,
// before any value function is called and under the registry lock —
// the place to take one consistent snapshot of state that several
// gauges render pieces of (membership epoch + node count, say), so a
// scrape can never observe a torn combination.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.preludes = append(r.preludes, f)
}

// register validates and files one child under name, creating the
// family on first use. Registration problems (bad name, kind clash,
// duplicate label set) are programmer errors and panic, like expvar.
func (r *Registry) register(name, help, kind string, c child) {
	if !validMetricName(name) {
		panic("promtext: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range c.labels() {
		if !validLabelName(l.Name) {
			panic("promtext: invalid label name " + strconv.Quote(l.Name) + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != kind {
		panic("promtext: metric " + name + " registered as both " + fam.kind + " and " + kind)
	}
	key := labelKey(c.labels())
	for _, prev := range fam.children {
		if labelKey(prev.labels()) == key {
			panic("promtext: duplicate registration of " + name + "{" + key + "}")
		}
	}
	fam.children = append(fam.children, c)
}

// Counter is a monotonically increasing integer cell.
type Counter struct {
	v  atomic.Int64
	ls []Label
}

// Counter registers and returns a counter cell. The name should end
// in _total by Prometheus convention.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{ls: labels}
	r.register(name, help, KindCounter, c)
	return c
}

// Add increments the counter; negative deltas are ignored (counters
// are monotonic by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) labels() []Label { return c.ls }

func (c *Counter) write(sb *strings.Builder, fam *family) {
	writeSample(sb, fam.name, c.ls, nil, float64(c.v.Load()))
}

// funcChild renders a value function as one sample.
type funcChild struct {
	f  func() float64
	ls []Label
}

func (c *funcChild) labels() []Label { return c.ls }

func (c *funcChild) write(sb *strings.Builder, fam *family) {
	writeSample(sb, fam.name, c.ls, nil, c.f())
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — the bridge from counts another component already keeps (a
// stats snapshot) without double bookkeeping. f must be monotonic.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, KindCounter, &funcChild{f: f, ls: labels})
}

// GaugeFunc registers a gauge whose value is read from f at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.register(name, help, KindGauge, &funcChild{f: f, ls: labels})
}

// Histogram is a cumulative histogram with fixed upper bounds. Observe
// is lock-free (atomic per-bucket counts and a CAS-accumulated sum),
// so it is safe on hot serving paths.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf excluded
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64
	ls      []Label
}

// Histogram registers a histogram with the given ascending bucket
// upper bounds (+Inf is implicit). Bounds must be strictly increasing
// and non-empty.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("promtext: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("promtext: histogram " + name + " bounds must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
		ls:     labels,
	}
	r.register(name, help, KindHistogram, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Find the first bound >= v. Bucket arrays are short (≤ ~20);
	// linear scan beats binary search at this size and stays obvious.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *Histogram) labels() []Label { return h.ls }

func (h *Histogram) write(sb *strings.Builder, fam *family) {
	// Cumulative bucket counts: each le bucket includes everything
	// below it, and +Inf equals _count.
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := Label{Name: "le", Value: formatBound(b)}
		writeSample(sb, fam.name+"_bucket", h.ls, &le, float64(cum))
	}
	cum += h.inf.Load()
	le := Label{Name: "le", Value: "+Inf"}
	writeSample(sb, fam.name+"_bucket", h.ls, &le, float64(cum))
	writeSample(sb, fam.name+"_sum", h.ls, nil, math.Float64frombits(h.sumBits.Load()))
	writeSample(sb, fam.name+"_count", h.ls, nil, float64(cum))
}

// WriteTo renders the registry as one exposition document.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	for _, f := range r.preludes {
		f()
	}
	var sb strings.Builder
	for _, fam := range r.families {
		sb.WriteString("# HELP ")
		sb.WriteString(fam.name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(fam.help))
		sb.WriteByte('\n')
		sb.WriteString("# TYPE ")
		sb.WriteString(fam.name)
		sb.WriteByte(' ')
		sb.WriteString(fam.kind)
		sb.WriteByte('\n')
		for _, c := range fam.children {
			c.write(&sb, fam)
		}
	}
	r.mu.Unlock()
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// writeSample renders one "name{labels} value" line. extra is an
// additional label (the histogram le) appended after the constant set.
func writeSample(sb *strings.Builder, name string, ls []Label, extra *Label, v float64) {
	sb.WriteString(name)
	if len(ls) > 0 || extra != nil {
		sb.WriteByte('{')
		for i, l := range ls {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeLabel(sb, l)
		}
		if extra != nil {
			if len(ls) > 0 {
				sb.WriteByte(',')
			}
			writeLabel(sb, *extra)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
}

func writeLabel(sb *strings.Builder, l Label) {
	sb.WriteString(l.Name)
	sb.WriteString(`="`)
	sb.WriteString(escapeLabelValue(l.Value))
	sb.WriteByte('"')
}

// formatValue renders a sample value: integers without an exponent
// (scrape diffing stays trivial), everything else in Go's shortest
// round-trippable form, specials in Prometheus spelling.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// formatBound renders a bucket upper bound for the le label.
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// labelKey is a canonical fingerprint of a label set (order
// independent), used only to reject duplicate registrations.
func labelKey(ls []Label) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
