package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label set
// (sorted rendering preserved as given), and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is a parsed metric family: the HELP/TYPE header plus every
// sample whose base name belongs to it (histogram _bucket/_sum/_count
// samples fold into their base family).
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseFamilies parses Prometheus text exposition format, strictly
// enough to serve as a validity check: every sample must follow a TYPE
// header for its family, label syntax must be well-formed, and values
// must parse as floats. It is the test-side inverse of
// Registry.WriteTo, not a general scrape client.
func ParseFamilies(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var fams []Family
	byName := map[string]int{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP with no metric name", lineNo)
			}
			if _, ok := byName[name]; ok {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			byName[name] = len(fams)
			fams = append(fams, Family{Name: name, Help: help})
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			i, ok := byName[name]
			if !ok {
				byName[name] = len(fams)
				fams = append(fams, Family{Name: name, Type: typ})
				continue
			}
			if fams[i].Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			fams[i].Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := s.Name
		i, ok := byName[base]
		if !ok {
			// histogram child samples fold into the base family
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(s.Name, suffix) {
					if j, ok2 := byName[strings.TrimSuffix(s.Name, suffix)]; ok2 {
						i, ok = j, true
						break
					}
				}
			}
		}
		if !ok {
			return nil, fmt.Errorf("line %d: sample %s precedes its TYPE header", lineNo, s.Name)
		}
		fams[i].Samples = append(fams[i].Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", fams[i].Name)
		}
	}
	return fams, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else if rest[i] == '{' {
		s.Name = rest[:i]
		after, err := parseLabels(rest[i+1:], s.Labels)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(after)
	} else {
		s.Name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	// value, optionally followed by a timestamp we ignore
	val, _, _ := strings.Cut(rest, " ")
	v, err := parseValue(val)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", val, line)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses a label set from just after its opening brace up to
// the closing brace and returns what follows it. The closing brace is the
// first one outside a quoted value: a value may itself hold braces
// (route="POST /t/{tenant}/ingest").
func parseLabels(s string, out map[string]string) (string, error) {
	for {
		if len(s) == 0 {
			return "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return s[1:], nil
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return "", fmt.Errorf("label pair missing '=' in %q", s)
		}
		key := s[:eq]
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return "", fmt.Errorf("label %q value not quoted", key)
		}
		s = s[1:]
		var b strings.Builder
		i := 0
		for ; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return "", fmt.Errorf("bad escape \\%c in label %q", s[i+1], key)
				}
				i++
				continue
			}
			if s[i] == '"' {
				break
			}
			b.WriteByte(s[i])
		}
		if i == len(s) {
			return "", fmt.Errorf("unterminated label value for %q", key)
		}
		out[key] = b.String()
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
}

// HistogramSnapshot is one histogram child read at one moment, live
// (Histogram.Snapshot) or scraped (FindHistogram): cumulative buckets by
// upper bound plus sum and count.
type HistogramSnapshot struct {
	Bounds []float64 // ascending; +Inf excluded
	Cum    []int64   // cumulative count ≤ each bound
	Count  int64     // total observations (the +Inf bucket)
	Sum    float64   // seconds
}

// FindHistogram extracts one labeled histogram child from parsed
// families, validating bucket monotonicity and the +Inf terminal on the
// way. match selects the child: every key/value in match must be
// present in the sample's labels ("le" excluded).
func FindHistogram(fams []Family, name string, match map[string]string) (*HistogramSnapshot, error) {
	var fam *Family
	for i := range fams {
		if fams[i].Name == name {
			fam = &fams[i]
			break
		}
	}
	if fam == nil {
		return nil, fmt.Errorf("histogram %s not found", name)
	}
	if fam.Type != "histogram" {
		return nil, fmt.Errorf("%s is a %s, not a histogram", name, fam.Type)
	}
	snap := &HistogramSnapshot{}
	sawInf := false
	matches := func(labels map[string]string) bool {
		for k, v := range match {
			if labels[k] != v {
				return false
			}
		}
		return true
	}
	for _, s := range fam.Samples {
		if !matches(s.Labels) {
			continue
		}
		switch s.Name {
		case name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return nil, fmt.Errorf("%s bucket without le label", name)
			}
			if le == "+Inf" {
				sawInf = true
				snap.Count = int64(s.Value)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad le %q", name, le)
			}
			snap.Bounds = append(snap.Bounds, bound)
			snap.Cum = append(snap.Cum, int64(s.Value))
		case name + "_sum":
			snap.Sum = s.Value
		case name + "_count":
			if sawInf && int64(s.Value) != snap.Count {
				return nil, fmt.Errorf("%s: _count %v disagrees with +Inf bucket %d", name, s.Value, snap.Count)
			}
			snap.Count = int64(s.Value)
		}
	}
	if !sawInf {
		return nil, fmt.Errorf("%s: no le=\"+Inf\" terminal bucket", name)
	}
	if !sort.Float64sAreSorted(snap.Bounds) {
		return nil, fmt.Errorf("%s: bucket bounds not ascending", name)
	}
	for i := 1; i < len(snap.Cum); i++ {
		if snap.Cum[i] < snap.Cum[i-1] {
			return nil, fmt.Errorf("%s: cumulative buckets not monotonic at le=%v", name, snap.Bounds[i])
		}
	}
	if len(snap.Cum) > 0 && snap.Count < snap.Cum[len(snap.Cum)-1] {
		return nil, fmt.Errorf("%s: +Inf bucket below last finite bucket", name)
	}
	return snap, nil
}

// Quantile derives the q-quantile (0..1) by linear interpolation inside
// the bucket that crosses rank q·Count, the same estimate Prometheus'
// histogram_quantile computes server-side. It returns 0 with no
// observations; the +Inf bucket clamps to the top finite bound (the
// conventional answer).
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	prevCum := int64(0)
	for i, cum := range s.Cum {
		n := cum - prevCum
		if n > 0 && float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - float64(prevCum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		prevCum = cum
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}
