package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/stream"
)

// Differential fuzzing of the recognizers against encoding/json, which
// defines the format. Two properties each: whatever a recognizer accepts,
// encoding/json accepts with the same values; and the decoder a handler
// calls returns, for any input at all, what a decoder built on
// encoding/json alone returns — values, acceptance and error text.

// tier names the recognizer that takes an input: the fused canonical
// one, the token-by-token one behind it, or neither, so that encoding/json
// does.
type tier string

const (
	tierFused  tier = "scanCanonical"
	tierObject tier = "scanObject"
	tierJSON   tier = "encoding/json"
)

// edgeTier says which tier takes one ingest line as decodeEdgesNDJSON
// hands it over.
func edgeTier(in []byte) tier {
	if _, i, ok := scanCanonical(in, 0, allFields); ok && i == len(in) {
		return tierFused
	}
	if _, ok := scanEdgeLine(in); ok {
		return tierObject
	}
	return tierJSON
}

// queryTier says which tier takes a query body: encoding/json when
// scanQueryBody declines it, scanCanonical when that takes every object
// of the batch, scanObject when some object needs the second tier.
func queryTier(tb testing.TB, in []byte) tier {
	tb.Helper()
	if _, _, ok := scanQueryBody(in, nil); !ok {
		return tierJSON
	}
	raws, ok := rawQueries(in)
	if !ok {
		tb.Fatalf("scanQueryBody accepted %q, Decode refuses it", in)
	}
	for _, raw := range raws {
		if _, i, ok := scanCanonical(raw, 0, fieldSrc|fieldDst); !ok || i != len(raw) {
			return tierObject
		}
	}
	return tierFused
}

// rawQueries returns the text of each object of a query body's batch as
// encoding/json delimits it, and false when Decode refuses the body.
func rawQueries(in []byte) ([]json.RawMessage, bool) {
	var req struct {
		Queries []json.RawMessage `json:"queries"`
	}
	err := json.NewDecoder(bytes.NewReader(in)).Decode(&req)
	return req.Queries, err == nil
}

// edgeSeeds are edge lines on and around the borders between the tiers;
// tier says which takes each.
var edgeSeeds = []struct {
	in   string
	tier tier
}{
	{`{"src":1,"dst":2}`, tierFused},
	{`{"src":1,"dst":2,"weight":3}`, tierFused},
	{`{"src":1,"dst":2,"weight":3,"time":4}`, tierFused},
	{`{"src":1,"dst":2,"weight":-1}`, tierFused}, // recognized; decodeEdgesNDJSON refuses it
	{`{"time":-4,"weight":-3,"dst":0,"src":18446744073709551615}`, tierObject},
	{" \t{ \"src\" : 1 ,\r\"dst\" : 2 } \t", tierObject},
	{`{"weight":-9223372036854775808}`, tierObject},
	{`{"weight":9223372036854775807}`, tierObject},
	{`{}`, tierObject},
	{`{"src":01}`, tierJSON},
	{`{"src":-1}`, tierJSON},
	{`{"weight":-0}`, tierJSON},
	{`{"weight":-}`, tierJSON},
	{`{"weight":9223372036854775808}`, tierJSON},
	{`{"weight":-9223372036854775809}`, tierJSON},
	{`{"src":18446744073709551616}`, tierJSON},
	{`{"src":99999999999999999999}`, tierJSON},
	{`{"src":1,"src":2}`, tierJSON},
	{`{"SRC":1}`, tierJSON},
	{`{"\u0073rc":1}`, tierJSON},
	{`{"src":1.0}`, tierJSON},
	{`{"src":1e3}`, tierJSON},
	{`{"src":1,}`, tierJSON},
	{`{"src":1}x`, tierJSON},
	{`{"src":1}{"src":2}`, tierJSON},
	{`{"x":[{}],"src":2}`, tierJSON},
	{`{"src":"1"}`, tierJSON},
	{`{"src":null}`, tierJSON},
	{`{"src":}`, tierJSON},
	{`{"src" 1}`, tierJSON},
	{`{"src":1`, tierJSON},
	{`{`, tierJSON},
	{``, tierJSON},
	{`null`, tierJSON},
	{`[1]`, tierJSON},
	{"{\"src\":1\v}", tierJSON},

	// The lines the benchmark's HTTP client writes (benchmark/inputs.go),
	// the ones this package's tests write, and the README's curl examples.
	{`{"src":2718,"dst":31415,"weight":1}`, tierFused},
	{`{"src":2718,"dst":31415,"weight":1,"time":1700000000}`, tierFused},
	{`{"src":1,"dst":101}`, tierFused},
	{`{"src":1,"dst":101,"weight":2}`, tierFused},
	// Python's json.dumps spacing and other key orders: the second tier.
	{`{"src": 1, "dst": 2}`, tierObject},
	{`{"src": 1, "dst": 2, "weight": 3, "time": 4}`, tierObject},
	{`{"dst":2,"src":1}`, tierObject},
	{`{"src":1,"weight":3,"dst":2}`, tierObject},
	{`{"src":1,"dst":2,"time":4,"weight":3}`, tierObject},
	{`{"src":1}`, tierObject},
	// The fused tier's borders. Optional keys: time without weight, and
	// each key at most once.
	{`{"src":1,"dst":2,"time":4}`, tierFused},
	{`{"src":1,"dst":2,"time":-4}`, tierFused},
	{`{"src":1,"dst":2,"weight":3,"weight":4}`, tierJSON},
	{`{"src":1,"dst":2,"time":3,"time":4}`, tierJSON},
	{`{"src":1,"dst":2,"weight":3,"time":4,"weight":5}`, tierJSON},
	{`{"src":1,"src":1,"dst":2}`, tierJSON},
	// Twenty digits, and one past each range.
	{`{"src":18446744073709551615,"dst":10000000000000000000}`, tierFused},
	{`{"src":1,"dst":2,"weight":-9223372036854775808,"time":9223372036854775807}`, tierFused},
	{`{"src":18446744073709551616,"dst":1}`, tierJSON},
	{`{"src":1,"dst":18446744073709551616}`, tierJSON},
	{`{"src":1,"dst":99999999999999999999}`, tierJSON},
	{`{"src":1,"dst":2,"weight":9223372036854775808}`, tierJSON},
	{`{"src":1,"dst":2,"time":-9223372036854775809}`, tierJSON},
	// Zeros: plain ones pass, leading ones and minus zero decline.
	{`{"src":0,"dst":0,"weight":0,"time":0}`, tierFused},
	{`{"src":00,"dst":1}`, tierJSON},
	{`{"src":1,"dst":02}`, tierJSON},
	{`{"src":1,"dst":2,"weight":-0}`, tierJSON},
	{`{"src":1,"dst":2,"time":-0}`, tierJSON},
	{`{"src":1,"dst":2,"weight":-01}`, tierJSON},
	{`{"src":-1,"dst":2}`, tierJSON},
	// Whitespace around the object: the second tier's.
	{`{"src":1,"dst":2} `, tierObject},
	{"{\"src\":1,\"dst\":2}\r", tierObject},
	{"\t{\"src\":1,\"dst\":2}", tierObject},
	// A valid object and then garbage, or cut short.
	{`{"src":1,"dst":2}x`, tierJSON},
	{`{"src":1,"dst":2}}`, tierJSON},
	{`{"src":1,"dst":2},`, tierJSON},
	{`{"src":1,"dst":2}{"src":1,"dst":2}`, tierJSON},
	{`{"src":1,"dst":2,"weight":3,"time":4}5`, tierJSON},
	{`{"src":1,"dst":2,}`, tierJSON},
	{`{"src":1,"dst":2,"weight":3,"x":4}`, tierJSON},
	{`{"src":1,"dst":2,"weight":3.0}`, tierJSON},
	{`{"src":1,"dst":2,"weight"}`, tierJSON},
	{`{"src":1,"dst":2,"weig`, tierJSON},
	{`{"src":1,"dst":`, tierJSON},
}

// querySeeds are whole query bodies; each edge seed also runs as the one
// element of a batch.
var querySeeds = []struct {
	in   string
	tier tier
}{
	{`{"queries":[{"src":1,"dst":2}]}`, tierFused},
	{`{"queries":[{"src":1,"dst":2},{"dst":4,"src":3},{}],"sync":true}`, tierObject},
	{` { "queries" : [ { "src" : 1 } , { "dst" : 2 } ] , "sync" : false } `, tierObject},
	{`{"queries":[]}`, tierFused},
	{`{"queries":[{"src":1,"dst":2}]}x`, tierFused}, // Decode stops at the brace too
	{`{"queries":[{"src":1,"dst":2}]}{"queries":[]}`, tierFused},
	{`{"sync":true,"queries":[{"src":1,"dst":2}]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2,"weight":3}]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}],"sync":true,"sync":false}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}],"sync":1}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}],"sync":truex}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}],}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2},]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}`, tierJSON},
	{`{"queries":[null]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2},{"SRC":3}]}`, tierJSON}, // declined half way, and valid
	{`{"queries":null}`, tierJSON},
	{`{"QUERIES":[{"src":1,"dst":2}]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}],"x":1}`, tierJSON},
	{`{}`, tierJSON},
	{`null`, tierJSON},
	{`[1]`, tierJSON},
	{`][`, tierJSON},
	{``, tierJSON},

	// The bodies the benchmark's HTTP client writes (benchmark/inputs.go)
	// and the README's curl example.
	{`{"queries":[{"src":2718,"dst":31415},{"src":0,"dst":18446744073709551615}]}`, tierFused},
	{"\n  {\"queries\":[{\"src\":1,\"dst\":101}],\"sync\":true}", tierFused},
	// Whitespace between the objects is the body's, not the objects'.
	{`{"queries":[ {"src":1,"dst":2} , {"src":3,"dst":4} ]}`, tierFused},
	{`{"queries": [{"src": 1, "dst": 2}], "sync": true}`, tierObject},
	{`{"queries":[{"src":1,"dst":2},{"dst":4,"src":3}]}`, tierObject},
	{`{"queries":[{"src":1,"dst":2,"time":3}]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}x]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":2}{"src":3,"dst":4}]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":02}]}`, tierJSON},
	{`{"queries":[{"src":1,"dst":18446744073709551616}]}`, tierJSON},
}

// referenceDecodeNDJSON is decodeEdgesNDJSON without the recognizer: every
// line is json.Unmarshal's, and a negative weight is refused.
func referenceDecodeNDJSON(r io.Reader) ([]stream.Edge, error) {
	var dst []stream.Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, scanBufCap), maxNDJSONLine)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e edgeJSON
		if err := json.Unmarshal(raw, &e); err != nil {
			return dst, fmt.Errorf("line %d: %w", line, err)
		}
		if e.Weight < 0 {
			return dst, fmt.Errorf("line %d: negative weight", line)
		}
		dst = append(dst, stream.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Time: e.Time})
	}
	if err := sc.Err(); err != nil {
		return dst, fmt.Errorf("line %d: %w", line+1, err)
	}
	return dst, nil
}

// sameError reports whether two decoders failed alike: both succeeded, or
// both failed with the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkCanonical holds the fused tier to encoding/json directly: whatever
// object scanCanonical reads at the start of in, json.Unmarshal of the
// same bytes reads with the same values, and so does scanObject.
func checkCanonical(t *testing.T, in []byte, allowed uint) {
	t.Helper()
	e, i, ok := scanCanonical(in, 0, allowed)
	if !ok {
		return
	}
	var want edgeJSON
	if err := json.Unmarshal(in[:i], &want); err != nil {
		t.Fatalf("scanCanonical accepted %q, json.Unmarshal says %v", in[:i], err)
	}
	if e != (stream.Edge{Src: want.Src, Dst: want.Dst, Weight: want.Weight, Time: want.Time}) {
		t.Fatalf("scanCanonical(%q) = %+v, json.Unmarshal %+v", in[:i], e, want)
	}
	if e2, j, ok := scanObject(in, 0, allowed); !ok || j != i || e2 != e {
		t.Fatalf("scanCanonical(%q) = %+v up to %d, scanObject %+v up to %d (ok=%v)", in, e, i, e2, j, ok)
	}
}

func checkEdgeLine(t *testing.T, in []byte) {
	t.Helper()
	checkCanonical(t, in, allFields)
	if e, ok := scanEdgeLine(in); ok {
		var want edgeJSON
		if err := json.Unmarshal(in, &want); err != nil {
			t.Fatalf("scanEdgeLine accepted %q, json.Unmarshal says %v", in, err)
		}
		if e != (stream.Edge{Src: want.Src, Dst: want.Dst, Weight: want.Weight, Time: want.Time}) {
			t.Fatalf("scanEdgeLine(%q) = %+v, json.Unmarshal %+v", in, e, want)
		}
	}
	got, gotErr := decodeEdgesNDJSON(bytes.NewReader(in), nil)
	want, wantErr := referenceDecodeNDJSON(bytes.NewReader(in))
	if !sameError(gotErr, wantErr) {
		t.Fatalf("decodeEdgesNDJSON(%q): error %v, reference %v", in, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("decodeEdgesNDJSON(%q) = %+v, reference %+v", in, got, want)
	}
}

func checkQueryBody(t *testing.T, in []byte) {
	t.Helper()
	checkCanonical(t, in, fieldSrc|fieldDst)
	raws, _ := rawQueries(in)
	for _, raw := range raws {
		checkCanonical(t, raw, fieldSrc|fieldDst)
	}
	var ref queryRequest
	refErr := json.NewDecoder(bytes.NewReader(in)).Decode(&ref)
	want := appendEdgeQueries(nil, ref.Queries)
	if qs, sync, ok := scanQueryBody(in, nil); ok {
		if refErr != nil {
			t.Fatalf("scanQueryBody accepted %q, Decode says %v", in, refErr)
		}
		if sync != ref.Sync || !slices.Equal(qs, want) {
			t.Fatalf("scanQueryBody(%q) = %+v sync=%v, Decode %+v sync=%v", in, qs, sync, want, ref.Sync)
		}
	}
	qs, sync, err := decodeQueryBody(in, nil)
	if !sameError(err, refErr) {
		t.Fatalf("decodeQueryBody(%q): error %v, Decode %v", in, err, refErr)
	}
	if err == nil && (sync != ref.Sync || !slices.Equal(qs, want)) {
		t.Fatalf("decodeQueryBody(%q) = %+v sync=%v, Decode %+v sync=%v", in, qs, sync, want, ref.Sync)
	}
}

func FuzzEdgeLine(f *testing.F) {
	for _, s := range edgeSeeds {
		f.Add([]byte(s.in))
	}
	f.Add([]byte("{\"src\":1,\"dst\":2}\n\n{\"src\":3}\r\n  \n{\"dst\":4,\"bad\n"))
	// Negative weights, on the recognizer's side of the border and on
	// encoding/json's: line 2 is refused either way, nothing is returned.
	f.Add([]byte("{\"src\":1,\"dst\":2}\n{\"src\":1,\"dst\":2,\"weight\":-1}\n"))
	f.Add([]byte("{\"src\":1,\"dst\":2}\n{\"src\":1,\"dst\":2,\"weight\":-9223372036854775808,\"x\":0}\n"))
	f.Fuzz(func(t *testing.T, in []byte) { checkEdgeLine(t, in) })
}

func FuzzQueryBody(f *testing.F) {
	for _, s := range querySeeds {
		f.Add([]byte(s.in))
	}
	for _, s := range edgeSeeds {
		f.Add([]byte(`{"queries":[` + s.in + `]}`))
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkQueryBody(t, in) })
}

// TestRecognizersAcceptAndDecline pins which tier takes each seed: a
// canonical shape that falls to a slower tier costs only speed and no
// differential check would notice, and the decline list is the contract
// that keeps the recognizers a subset of the format.
func TestRecognizersAcceptAndDecline(t *testing.T) {
	for _, s := range edgeSeeds {
		if got := edgeTier([]byte(s.in)); got != s.tier {
			t.Errorf("edge line %q is taken by %s, want %s", s.in, got, s.tier)
		}
		checkEdgeLine(t, []byte(s.in))
	}
	for _, s := range querySeeds {
		if got := queryTier(t, []byte(s.in)); got != s.tier {
			t.Errorf("query body %q is taken by %s, want %s", s.in, got, s.tier)
		}
		checkQueryBody(t, []byte(s.in))
	}
}
