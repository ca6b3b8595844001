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

// edgeSeeds are edge objects on and around the border of what
// scanEdgeLine accepts; want says on which side.
var edgeSeeds = []struct {
	in   string
	want bool
}{
	{`{"src":1,"dst":2}`, true},
	{`{"src":1,"dst":2,"weight":3}`, true},
	{`{"src":1,"dst":2,"weight":3,"time":4}`, true},
	{`{"src":1,"dst":2,"weight":-1}`, true}, // recognized; decodeEdgesNDJSON refuses it
	{`{"time":-4,"weight":-3,"dst":0,"src":18446744073709551615}`, true},
	{" \t{ \"src\" : 1 ,\r\"dst\" : 2 } \t", true},
	{`{"weight":-9223372036854775808}`, true},
	{`{"weight":9223372036854775807}`, true},
	{`{}`, true},
	{`{"src":01}`, false},
	{`{"src":-1}`, false},
	{`{"weight":-0}`, false},
	{`{"weight":-}`, false},
	{`{"weight":9223372036854775808}`, false},
	{`{"weight":-9223372036854775809}`, false},
	{`{"src":18446744073709551616}`, false},
	{`{"src":99999999999999999999}`, false},
	{`{"src":1,"src":2}`, false},
	{`{"SRC":1}`, false},
	{`{"\u0073rc":1}`, false},
	{`{"src":1.0}`, false},
	{`{"src":1e3}`, false},
	{`{"src":1,}`, false},
	{`{"src":1}x`, false},
	{`{"src":1}{"src":2}`, false},
	{`{"x":[{}],"src":2}`, false},
	{`{"src":"1"}`, false},
	{`{"src":null}`, false},
	{`{"src":}`, false},
	{`{"src" 1}`, false},
	{`{"src":1`, false},
	{`{`, false},
	{``, false},
	{`null`, false},
	{`[1]`, false},
	{"{\"src\":1\v}", false},
}

// querySeeds are whole query bodies; each edge seed also runs as the one
// element of a batch.
var querySeeds = []struct {
	in   string
	want bool
}{
	{`{"queries":[{"src":1,"dst":2}]}`, true},
	{`{"queries":[{"src":1,"dst":2},{"dst":4,"src":3},{}],"sync":true}`, true},
	{` { "queries" : [ { "src" : 1 } , { "dst" : 2 } ] , "sync" : false } `, true},
	{`{"queries":[]}`, true},
	{`{"queries":[{"src":1,"dst":2}]}x`, true}, // Decode stops at the brace too
	{`{"queries":[{"src":1,"dst":2}]}{"queries":[]}`, true},
	{`{"sync":true,"queries":[{"src":1,"dst":2}]}`, false},
	{`{"queries":[{"src":1,"dst":2,"weight":3}]}`, false},
	{`{"queries":[{"src":1,"dst":2}],"sync":true,"sync":false}`, false},
	{`{"queries":[{"src":1,"dst":2}],"sync":1}`, false},
	{`{"queries":[{"src":1,"dst":2}],"sync":truex}`, false},
	{`{"queries":[{"src":1,"dst":2}],}`, false},
	{`{"queries":[{"src":1,"dst":2},]}`, false},
	{`{"queries":[{"src":1,"dst":2}`, false},
	{`{"queries":[null]}`, false},
	{`{"queries":[{"src":1,"dst":2},{"SRC":3}]}`, false}, // declined half way, and valid
	{`{"queries":null}`, false},
	{`{"QUERIES":[{"src":1,"dst":2}]}`, false},
	{`{"queries":[{"src":1,"dst":2}],"x":1}`, false},
	{`{}`, false},
	{`null`, false},
	{`[1]`, false},
	{`][`, false},
	{``, false},
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

func checkEdgeLine(t *testing.T, in []byte) {
	t.Helper()
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

// TestRecognizersAcceptAndDecline pins which side of the border each seed
// falls on: a canonical shape that is declined costs only speed and no
// differential check would notice, and the decline list is the contract
// that keeps the recognizers a subset of the format.
func TestRecognizersAcceptAndDecline(t *testing.T) {
	for _, s := range edgeSeeds {
		if _, ok := scanEdgeLine([]byte(s.in)); ok != s.want {
			t.Errorf("scanEdgeLine(%q) accepted=%v, want %v", s.in, ok, s.want)
		}
		checkEdgeLine(t, []byte(s.in))
	}
	for _, s := range querySeeds {
		if _, _, ok := scanQueryBody([]byte(s.in), nil); ok != s.want {
			t.Errorf("scanQueryBody(%q) accepted=%v, want %v", s.in, ok, s.want)
		}
		checkQueryBody(t, []byte(s.in))
	}
}
