package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one library pass
// share its pass number in Req; spans of one HTTP request carry the
// request's index.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Start  float64 `json:"start_us"` // since the trace began
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally. It is used
// from one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: t.us(time.Now())})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.us(time.Now())
}

// add records a span whose interval was measured elsewhere (the load
// generator times requests itself).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: t.us(start), End: t.us(end)})
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it that its children cover. Children
// may overlap (concurrent requests); their union is what is subtracted.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, lo, hi, open := 0.0, 0.0, 0.0, false
		for _, c := range ch {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			switch {
			case !open:
				lo, hi, open = a, b, true
			case a > hi:
				covered += hi - lo
				lo, hi = a, b
			case b > hi:
				hi = b
			}
		}
		if open {
			covered += hi - lo
		}
		out[s.Name] += (s.End - s.Start - covered) / 1e6
	}
	return out
}

// write saves the span file.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
