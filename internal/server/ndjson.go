package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Wire types of the HTTP/JSON API.

// edgeJSON is one NDJSON ingest line: {"src":1,"dst":2,"weight":3,"time":4}.
// Weight and time are optional (weight 0 counts as 1, the paper's default;
// a negative weight is refused with the request).
type edgeJSON struct {
	Src    uint64 `json:"src"`
	Dst    uint64 `json:"dst"`
	Weight int64  `json:"weight,omitempty"`
	Time   int64  `json:"time,omitempty"`
}

// queryJSON is one edge query of a /query batch.
type queryJSON struct {
	Src uint64 `json:"src"`
	Dst uint64 `json:"dst"`
}

// queryRequest is the POST /query body.
type queryRequest struct {
	Queries []queryJSON `json:"queries"`
	// Sync flushes the ingest pipeline before answering, giving
	// read-your-writes over everything already accepted by /ingest.
	Sync bool `json:"sync,omitempty"`
}

// resultJSON is one bound-carrying answer: the batched read path's Result
// plus the echoed query endpoints.
type resultJSON struct {
	Src         uint64  `json:"src"`
	Dst         uint64  `json:"dst"`
	Estimate    int64   `json:"estimate"`
	Partition   int     `json:"partition"`
	Outlier     bool    `json:"outlier,omitempty"`
	ErrorBound  float64 `json:"error_bound"`
	Confidence  float64 `json:"confidence"`
	StreamTotal int64   `json:"stream_total"`
}

// queryResponse is the POST /query reply. appendQueryReply writes it
// without reflection; the types remain as the definition of the format.
type queryResponse struct {
	Results []resultJSON `json:"results"`
}

// newQueryResponse pairs results with the queries they answer.
func newQueryResponse(qs []core.EdgeQuery, results []core.Result) queryResponse {
	resp := queryResponse{Results: make([]resultJSON, len(results))}
	for i, res := range results {
		resp.Results[i] = resultJSON{
			Src:         qs[i].Src,
			Dst:         qs[i].Dst,
			Estimate:    res.Estimate,
			Partition:   res.Partition,
			Outlier:     res.Outlier,
			ErrorBound:  res.ErrorBound,
			Confidence:  res.Confidence,
			StreamTotal: res.StreamTotal,
		}
	}
	return resp
}

// windowQueryRequest is the POST /query/window body: a query batch over
// the inclusive time range [t1, t2].
type windowQueryRequest struct {
	Queries []queryJSON `json:"queries"`
	T1      int64       `json:"t1"`
	T2      int64       `json:"t2"`
}

// windowQueryResponse carries the fractional-overlap window estimates in
// input order.
type windowQueryResponse struct {
	Values []float64 `json:"values"`
}

// ingestResponse is the POST /ingest reply. Rejected > 0 comes with HTTP
// 429: the pipeline shed load and the client should retry the rejected
// suffix after a backoff.
type ingestResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected,omitempty"`
	Error    string `json:"error,omitempty"`
	Code     string `json:"code,omitempty"`
}

// snapshotRequest parameterizes POST /snapshot/save and /snapshot/restore.
type snapshotRequest struct {
	Path string `json:"path,omitempty"`
}

// maxNDJSONLine bounds one ingest line; far beyond any honest edge record.
const maxNDJSONLine = 1 << 16

// decodeEdgesNDJSON parses newline-delimited JSON edges, appending to dst
// (normally a pooled buffer). Blank lines are skipped. The whole body is
// parsed before anything is returned, so a syntax error rejects the
// request without a partial ingest. The scanner runs over a pooled buffer
// sized to the line bound, and scanEdgeLine reads each line as it stands,
// so a warm server allocates nothing per line and a line of the canonical
// shape is not even trimmed; a line it declines is trimmed, skipped when
// blank and otherwise json.Unmarshal's, which alone defines the syntax
// accepted and words every syntax error. Either way a negative weight is
// refused.
func decodeEdgesNDJSON(r io.Reader, dst []stream.Edge) ([]stream.Edge, error) {
	sc := bufio.NewScanner(r)
	sb := getScanBuf()
	defer putScanBuf(sb)
	sc.Buffer(*sb, maxNDJSONLine)
	line := 0
	for sc.Scan() {
		// After a failed read the scanner hands over what it had, down to
		// a last line cut short: none of it is parsed, and the failure
		// reported is the read's (a body past MaxBodyBytes is 413, not a
		// syntax error).
		if sc.Err() != nil {
			break
		}
		line++
		e, ok := scanEdgeLine(sc.Bytes())
		if !ok {
			raw := bytes.TrimSpace(sc.Bytes())
			if len(raw) == 0 {
				continue
			}
			var ej edgeJSON
			if err := json.Unmarshal(raw, &ej); err != nil {
				return dst, fmt.Errorf("line %d: %w", line, err)
			}
			e = stream.Edge{Src: ej.Src, Dst: ej.Dst, Weight: ej.Weight, Time: ej.Time}
		}
		// The one rule on top of the format, for either parse: the sketches
		// count in the cash-register model, so a weight below zero refuses
		// the request.
		if e.Weight < 0 {
			return dst, fmt.Errorf("line %d: negative weight", line)
		}
		dst = append(dst, e)
	}
	if err := sc.Err(); err != nil {
		return dst, fmt.Errorf("line %d: %w", line+1, err)
	}
	return dst, nil
}

// decodeQueryBody parses a POST /query body, appending its queries to dst
// (normally a pooled buffer): scanQueryBody for the canonical shape, the
// json.Decoder call that defines the format for everything else. Like
// that call, it reads one JSON value and ignores what follows it.
func decodeQueryBody(body []byte, dst []core.EdgeQuery) (qs []core.EdgeQuery, sync bool, err error) {
	if qs, sync, ok := scanQueryBody(body, dst); ok {
		return qs, sync, nil
	}
	var req queryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return dst, false, err
	}
	return appendEdgeQueries(dst, req.Queries), req.Sync, nil
}

// readBody reads r to its end, appending to buf (normally a pooled
// buffer, so a warm server does not allocate to hold a request).
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// appendEdgeQueries converts JSON queries to the batched read path's
// unit, appending to dst (normally a pooled buffer).
func appendEdgeQueries(dst []core.EdgeQuery, qs []queryJSON) []core.EdgeQuery {
	for _, q := range qs {
		dst = append(dst, core.EdgeQuery{Src: q.Src, Dst: q.Dst})
	}
	return dst
}
