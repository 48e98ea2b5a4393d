package promtext

// The reader half: Parse validates a text exposition document and
// returns its metric families, so the CI smokes and the docs
// drift-guard test can hold a live /metrics scrape to the format
// contract (metadata before samples, valid names and label syntax,
// histogram bucket invariants) and to the documented name set.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	// Name is the sample name as written (histogram samples carry the
	// _bucket/_sum/_count suffix here; Family.Name does not).
	Name string
	// Labels are the sample's label pairs in document order.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// Family is one parsed metric family: the base name (histogram
// suffixes stripped), its metadata, and its samples in document order.
type Family struct {
	Name    string
	Type    string // counter, gauge, histogram, summary, or untyped
	Help    string
	Samples []Sample
}

// Scrape is one parsed exposition document.
type Scrape struct {
	byName map[string]*Family
	order  []string
}

// Families returns the family names in document order.
func (s *Scrape) Families() []string {
	return append([]string(nil), s.order...)
}

// Family returns the named family, or nil.
func (s *Scrape) Family(name string) *Family {
	return s.byName[name]
}

// Value sums every sample named exactly name across label sets —
// counters and gauges add naturally; for a histogram pass the
// name_count/name_sum spelling explicitly. ok is false when no such
// sample exists.
func (s *Scrape) Value(name string) (v float64, ok bool) {
	for _, fam := range s.byName {
		for _, smp := range fam.Samples {
			if smp.Name == name {
				v += smp.Value
				ok = true
			}
		}
	}
	return v, ok
}

// maxLineBytes bounds one exposition line; a scrape target emitting an
// unbounded line is broken, not big.
const maxLineBytes = 1 << 20

// Parse reads and validates one exposition document. Violations of the
// format — samples before their # TYPE, bad metric or label names,
// duplicate labels, malformed values, duplicate samples, histogram
// children missing +Inf, with two buckets at one bound, or with
// non-cumulative buckets, counters going negative — are errors.
func Parse(r io.Reader) (*Scrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	out := &Scrape{byName: map[string]*Family{}}
	seen := map[string]bool{} // name + rendered labels → duplicate guard
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := out.parseMeta(line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		if err := out.parseSample(line, lineNo, seen); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("promtext: reading scrape: %w", err)
	}
	for _, name := range out.order {
		if err := out.byName[name].validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// family returns (creating if needed) the family record for a base
// name.
func (s *Scrape) family(name string) *Family {
	fam := s.byName[name]
	if fam == nil {
		fam = &Family{Name: name, Type: "untyped"}
		s.byName[name] = fam
		s.order = append(s.order, name)
	}
	return fam
}

func (s *Scrape) parseMeta(line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || fields[0] != "#" {
		return nil // free-form comment; the format allows it
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("promtext: line %d: malformed HELP line", lineNo)
		}
		fam := s.family(fields[2])
		if len(fam.Samples) > 0 {
			return fmt.Errorf("promtext: line %d: HELP for %s after its samples", lineNo, fields[2])
		}
		if len(fields) == 4 {
			fam.Help = fields[3]
		}
	case "TYPE":
		if len(fields) < 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("promtext: line %d: malformed TYPE line", lineNo)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("promtext: line %d: unknown metric type %q", lineNo, fields[3])
		}
		fam := s.family(fields[2])
		if len(fam.Samples) > 0 {
			return fmt.Errorf("promtext: line %d: TYPE for %s after its samples", lineNo, fields[2])
		}
		if fam.Type != "untyped" && fam.Type != fields[3] {
			return fmt.Errorf("promtext: line %d: %s re-typed %s → %s", lineNo, fields[2], fam.Type, fields[3])
		}
		fam.Type = fields[3]
	}
	return nil
}

func (s *Scrape) parseSample(line string, lineNo int, seen map[string]bool) error {
	name, rest, err := splitName(line)
	if err != nil {
		return fmt.Errorf("promtext: line %d: %v", lineNo, err)
	}
	labels, rest, err := splitLabels(rest)
	if err != nil {
		return fmt.Errorf("promtext: line %d: %v", lineNo, err)
	}
	valText, _, _ := strings.Cut(strings.TrimSpace(rest), " ") // optional timestamp ignored
	value, err := parseValue(valText)
	if err != nil {
		return fmt.Errorf("promtext: line %d: value %q: %v", lineNo, valText, err)
	}
	key := name + "{" + labelKey(labels) + "}"
	if seen[key] {
		return fmt.Errorf("promtext: line %d: duplicate sample %s", lineNo, key)
	}
	seen[key] = true

	// Resolve the base family: a _bucket/_sum/_count suffix folds into
	// a declared histogram (or summary) family.
	base := name
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		trimmed := strings.TrimSuffix(name, suffix)
		if trimmed == name {
			continue
		}
		if fam := s.byName[trimmed]; fam != nil && (fam.Type == "histogram" || fam.Type == "summary") {
			base = trimmed
			break
		}
	}
	fam := s.family(base)
	if fam.Type == "counter" && base == name && value < 0 {
		return fmt.Errorf("promtext: line %d: counter %s is negative (%v)", lineNo, name, value)
	}
	fam.Samples = append(fam.Samples, Sample{Name: name, Labels: labels, Value: value})
	return nil
}

// validate checks the per-family invariants that need the whole
// document: histogram children must carry cumulative buckets ending in
// +Inf whose total equals _count.
func (f *Family) validate() error {
	if f.Type != "histogram" {
		return nil
	}
	type hchild struct {
		bounds []float64
		counts []float64
		count  float64
		hasCnt bool
		hasSum bool
	}
	children := map[string]*hchild{}
	childOf := func(ls []Label) *hchild {
		base := make([]Label, 0, len(ls))
		for _, l := range ls {
			if l.Name != "le" {
				base = append(base, l)
			}
		}
		key := labelKey(base)
		c := children[key]
		if c == nil {
			c = &hchild{}
			children[key] = c
		}
		return c
	}
	for _, smp := range f.Samples {
		c := childOf(smp.Labels)
		switch {
		case smp.Name == f.Name+"_bucket":
			le := ""
			for _, l := range smp.Labels {
				if l.Name == "le" {
					le = l.Value
				}
			}
			bound, err := parseValue(le)
			if err != nil || math.IsNaN(bound) {
				return fmt.Errorf("promtext: histogram %s: bad le %q", f.Name, le)
			}
			c.bounds = append(c.bounds, bound)
			c.counts = append(c.counts, smp.Value)
		case smp.Name == f.Name+"_count":
			c.count, c.hasCnt = smp.Value, true
		case smp.Name == f.Name+"_sum":
			c.hasSum = true
		default:
			return fmt.Errorf("promtext: histogram %s carries stray sample %s", f.Name, smp.Name)
		}
	}
	for _, c := range children {
		if !c.hasCnt || !c.hasSum {
			return fmt.Errorf("promtext: histogram %s child missing _count or _sum", f.Name)
		}
		if len(c.bounds) == 0 {
			return fmt.Errorf("promtext: histogram %s child has no buckets", f.Name)
		}
		// Buckets may arrive in any order per the format; sort by bound.
		idx := make([]int, len(c.bounds))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return c.bounds[idx[a]] < c.bounds[idx[b]] })
		prev := math.Inf(-1)
		prevCount := 0.0
		for n, i := range idx {
			if n > 0 && c.bounds[i] == prev {
				return fmt.Errorf("promtext: histogram %s has two buckets with le %v", f.Name, prev)
			}
			// Negated so a NaN count fails too.
			if !(c.counts[i] >= prevCount) {
				return fmt.Errorf("promtext: histogram %s buckets are not cumulative", f.Name)
			}
			prev, prevCount = c.bounds[i], c.counts[i]
		}
		if !math.IsInf(prev, 1) {
			return fmt.Errorf("promtext: histogram %s child lacks a +Inf bucket", f.Name)
		}
		if prevCount != c.count {
			return fmt.Errorf("promtext: histogram %s +Inf bucket %v != _count %v", f.Name, prevCount, c.count)
		}
	}
	return nil
}

// splitName peels the metric name off a sample line.
func splitName(line string) (name, rest string, err error) {
	end := 0
	for end < len(line) && line[end] != '{' && line[end] != ' ' && line[end] != '\t' {
		end++
	}
	name = line[:end]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[end:], nil
}

// splitLabels parses an optional {name="value",...} block.
func splitLabels(rest string) ([]Label, string, error) {
	if !strings.HasPrefix(rest, "{") {
		return nil, rest, nil
	}
	var labels []Label
	i := 1
	for {
		for i < len(rest) && (rest[i] == ' ' || rest[i] == ',') {
			i++
		}
		if i < len(rest) && rest[i] == '}' {
			return labels, rest[i+1:], nil
		}
		start := i
		for i < len(rest) && rest[i] != '=' {
			i++
		}
		if i >= len(rest) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		lname := strings.TrimSpace(rest[start:i])
		if !validLabelName(lname) && lname != "le" {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		for _, l := range labels {
			if l.Name == lname {
				return nil, "", fmt.Errorf("duplicate label %s", lname)
			}
		}
		i++ // '='
		if i >= len(rest) || rest[i] != '"' {
			return nil, "", fmt.Errorf("label %s: value is not quoted", lname)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(rest) {
				return nil, "", fmt.Errorf("label %s: unterminated value", lname)
			}
			c := rest[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(rest) {
					return nil, "", fmt.Errorf("label %s: dangling escape", lname)
				}
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: unknown escape \\%c", lname, rest[i])
				}
				i++
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: lname, Value: val.String()})
	}
}

// parseValue parses a sample value, accepting the Prometheus special
// spellings.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	case "":
		return 0, fmt.Errorf("empty value")
	}
	return strconv.ParseFloat(s, 64)
}
