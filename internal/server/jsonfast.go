package server

import (
	"math"
	"strconv"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// The data plane's text handling without reflection: recognizers for the
// one NDJSON edge shape and the one JSON query shape every producer sends,
// and an appender for the query reply.
//
// The recognizers are a fast path in front of encoding/json, not a second
// parser. They accept a strict subset of what json.Unmarshal into edgeJSON
// (json.Decoder.Decode into queryRequest) accepts, produce the same
// values on that subset, and decline — never error — on everything else;
// the caller then runs the encoding/json call it always ran, so the
// accepted language, the decoded values and the error text stay
// encoding/json's by construction. Declined on purpose, although
// encoding/json takes them: unknown, repeated, escaped or differently
// cased keys, null, "-0", and (in a query body) any key order other than
// queries-then-sync. FuzzEdgeLine and FuzzQueryBody hold the two sides
// together.
//
// An edge object is tried by two tiers in turn. scanCanonical takes the
// text every producer we know of writes, {"src":N,"dst":N[,"weight":N]
// [,"time":N]} without whitespace and in that order, as a few fused
// literal compares (≈ 45 ns a line); scanObject takes keys in any order
// and JSON whitespace between tokens, as Python's json.dumps writes them,
// token by token (≈ 100 ns).

// The fields of an edge object, as bits of the set scanObject may accept
// and of the set it has seen.
const (
	fieldSrc = 1 << iota
	fieldDst
	fieldWeight
	fieldTime
)

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanUint reads a JSON integer without sign, fraction or exponent at
// b[i:] and returns the index after its last digit. A leading zero before
// another digit and a value beyond uint64 decline; whatever follows the
// digits is the caller's to check, so "1.0" and "1e3" decline there.
func scanUint(b []byte, i int) (v uint64, next int, ok bool) {
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	// Up to 19 digits cannot overflow; 20 without a leading zero do when
	// they sort after the largest uint64.
	const largest = "18446744073709551615" // math.MaxUint64
	switch n := i - start; {
	case n == 0, n > len(largest), n > 1 && b[start] == '0', n == len(largest) && string(b[start:i]) > largest:
		return 0, 0, false
	}
	return v, i, true
}

// scanInt is scanUint with an optional minus sign, for the int64 range.
func scanInt(b []byte, i int) (v int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	mag, next, ok := scanUint(b, i)
	switch {
	case !ok:
		return 0, 0, false
	case !neg:
		return int64(mag), next, mag <= math.MaxInt64
	default:
		return int64(-mag), next, mag != 0 && mag <= 1<<63
	}
}

// scanObject reads one {"src":N,"dst":N,"weight":N,"time":N} object at
// b[i:], keys in any order and each at most once, only those in allowed,
// and returns the index after its closing brace.
func scanObject(b []byte, i int, allowed uint) (e stream.Edge, next int, ok bool) {
	if i >= len(b) || b[i] != '{' {
		return e, 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return e, i + 1, true
	}
	var seen uint
	for {
		// Literal comparisons, so that the compiler makes them loads and
		// not calls.
		var field uint
		switch key := b[i:]; {
		case len(key) >= 5 && string(key[:5]) == `"src"`:
			field, i = fieldSrc, i+5
		case len(key) >= 5 && string(key[:5]) == `"dst"`:
			field, i = fieldDst, i+5
		case len(key) >= 8 && string(key[:8]) == `"weight"`:
			field, i = fieldWeight, i+8
		case len(key) >= 6 && string(key[:6]) == `"time"`:
			field, i = fieldTime, i+6
		}
		if field&allowed&^seen == 0 {
			return e, 0, false
		}
		seen |= field
		i = skipSpace(b, i)
		if i >= len(b) || b[i] != ':' {
			return e, 0, false
		}
		i = skipSpace(b, i+1)
		switch field {
		case fieldSrc:
			e.Src, i, ok = scanUint(b, i)
		case fieldDst:
			e.Dst, i, ok = scanUint(b, i)
		case fieldWeight:
			e.Weight, i, ok = scanInt(b, i)
		case fieldTime:
			e.Time, i, ok = scanInt(b, i)
		}
		if !ok {
			return e, 0, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return e, 0, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return e, i + 1, true
		default:
			return e, 0, false
		}
	}
}

// scanCanonical reads one {"src":N,"dst":N[,"weight":N][,"time":N]}
// object at b[i:], with no whitespace, the keys in that order, src and
// dst always and weight and time only when in allowed, and returns the
// index after its closing brace. Whatever it declines is scanObject's.
func scanCanonical(b []byte, i int, allowed uint) (e stream.Edge, next int, ok bool) {
	// Literal comparisons of at most 16 bytes, so that the compiler makes
	// them a load or two each and not calls.
	if len(b)-i < 7 || string(b[i:i+7]) != `{"src":` {
		return e, 0, false
	}
	if e.Src, i, ok = scanUint(b, i+7); !ok || len(b)-i < 7 || string(b[i:i+7]) != `,"dst":` {
		return e, 0, false
	}
	if e.Dst, i, ok = scanUint(b, i+7); !ok {
		return e, 0, false
	}
	if allowed&fieldWeight != 0 && len(b)-i >= 10 && string(b[i:i+10]) == `,"weight":` {
		if e.Weight, i, ok = scanInt(b, i+10); !ok {
			return e, 0, false
		}
	}
	if allowed&fieldTime != 0 && len(b)-i >= 8 && string(b[i:i+8]) == `,"time":` {
		if e.Time, i, ok = scanInt(b, i+8); !ok {
			return e, 0, false
		}
	}
	if i >= len(b) || b[i] != '}' {
		return e, 0, false
	}
	return e, i + 1, true
}

// allFields is the set of keys an ingest line may carry.
const allFields = fieldSrc | fieldDst | fieldWeight | fieldTime

// scanEdgeLine recognizes one NDJSON ingest line: a single edge object and
// nothing before or after it but JSON whitespace.
func scanEdgeLine(raw []byte) (stream.Edge, bool) {
	if e, i, ok := scanCanonical(raw, 0, allFields); ok && i == len(raw) {
		return e, true
	}
	e, i, ok := scanObject(raw, skipSpace(raw, 0), allFields)
	return e, ok && skipSpace(raw, i) == len(raw)
}

// token returns the index after lit when lit is the first thing at b[i:]
// that is not JSON whitespace, and -1 when it is not.
func token(b []byte, i int, lit string) int {
	if i = skipSpace(b, i); len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
		return i + len(lit)
	}
	return -1
}

// tokens is token for a sequence of literals.
func tokens(b []byte, i int, lits ...string) int {
	for _, lit := range lits {
		if i = token(b, i, lit); i < 0 {
			break
		}
	}
	return i
}

// scanQueryBody recognizes {"queries":[{"src":N,"dst":N},…][,"sync":bool]}
// at the start of body, appending the queries to dst. Like Decode, it does
// not look past the end of the object. When it declines, what it appended
// to dst is to be discarded.
func scanQueryBody(body []byte, dst []core.EdgeQuery) (qs []core.EdgeQuery, sync, ok bool) {
	i := tokens(body, 0, "{", `"queries"`, ":", "[")
	if i < 0 {
		return dst, false, false
	}
	if j := token(body, i, "]"); j >= 0 {
		i = j
	} else {
		for {
			i = skipSpace(body, i)
			e, next, ok := scanCanonical(body, i, fieldSrc|fieldDst)
			if !ok {
				if e, next, ok = scanObject(body, i, fieldSrc|fieldDst); !ok {
					return dst, false, false
				}
			}
			dst = append(dst, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
			i = skipSpace(body, next)
			if i >= len(body) || body[i] != ',' {
				break
			}
			i++
		}
		if i = token(body, i, "]"); i < 0 {
			return dst, false, false
		}
	}
	if j := tokens(body, i, ",", `"sync"`, ":"); j >= 0 {
		if i = token(body, j, "true"); i >= 0 {
			sync = true
		} else if i = token(body, j, "false"); i < 0 {
			return dst, false, false
		}
	}
	return dst, sync, token(body, i, "}") >= 0
}

// appendJSONFloat appends f the way encoding/json writes a float64: the
// shortest text that parses back to f, fixed notation except below 1e-6
// and from 1e21 up, where the exponent loses its leading zero ("e-09" is
// written "e-9"). f must be finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// floatTexts remembers where in a reply under construction the text of a
// float already stands, so that an equal one is copied and not formatted
// again: shortest-text formatting costs more than the rest of a result
// together, a sketch gives every answer the same confidence and every
// answer of a partition the same bound, and a batch has far fewer
// partitions than answers. Direct-mapped on the float's bits (0 and -0
// print differently); a collision formats again, which is only slower.
type floatTexts [64]struct {
	bits   uint64
	lo, hi int // dst[lo:hi]; offsets, because append may move dst
}

func (c *floatTexts) append(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	e := &c[bits*0x9E3779B97F4A7C15>>58]
	if e.bits == bits && e.hi > 0 {
		return append(dst, dst[e.lo:e.hi]...)
	}
	e.bits, e.lo = bits, len(dst)
	dst = appendJSONFloat(dst, f)
	e.hi = len(dst)
	return dst
}

// appendQueryReply appends the POST /query reply for results, which answer
// qs in order: byte for byte what json.NewEncoder(w).Encode of the same
// queryResponse writes, trailing newline included. ok is false, and dst not
// to be used, when a float is not finite: encoding/json refuses those, and
// so the caller must ask it.
func appendQueryReply(dst []byte, qs []core.EdgeQuery, results []core.Result) (out []byte, ok bool) {
	var floats floatTexts
	dst = append(dst, `{"results":[`...)
	for i := range results {
		r := &results[i]
		if !finite(r.ErrorBound) || !finite(r.Confidence) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"src":`...)
		dst = strconv.AppendUint(dst, qs[i].Src, 10)
		dst = append(dst, `,"dst":`...)
		dst = strconv.AppendUint(dst, qs[i].Dst, 10)
		dst = append(dst, `,"estimate":`...)
		dst = strconv.AppendInt(dst, r.Estimate, 10)
		dst = append(dst, `,"partition":`...)
		dst = strconv.AppendInt(dst, int64(r.Partition), 10)
		if r.Outlier {
			dst = append(dst, `,"outlier":true`...)
		}
		dst = append(dst, `,"error_bound":`...)
		dst = floats.append(dst, r.ErrorBound)
		dst = append(dst, `,"confidence":`...)
		dst = floats.append(dst, r.Confidence)
		dst = append(dst, `,"stream_total":`...)
		dst = strconv.AppendInt(dst, r.StreamTotal, 10)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), true
}
