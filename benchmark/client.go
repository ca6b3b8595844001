package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/wire"
)

// Bounded retry of a shed ingest suffix: an edge still refused after
// maxRetries rounds counts as never accepted.
const (
	maxRetries   = 2000
	retryBackoff = 200 * time.Microsecond
	opTimeout    = 30 * time.Second
)

var errNeverAccepted = errors.New("ingest still shed after bounded retries")

// client is one load-generating connection. It is used by one goroutine.
type client interface {
	// ingest sends frame f of the inputs (to the given tenant when the
	// server is multi-tenant) until all of it is accepted, and reports how
	// many retry rounds that took.
	ingest(f, tenant int) (retries int, err error)
	// query answers batch b of the pool, or of the accuracy set. The
	// returned slice is valid until the next call. Pool answers are only
	// guaranteed their Estimate; accuracy answers carry their bounds too.
	query(accuracy bool, b, tenant int) ([]core.Result, error)
	// flush is the read-your-writes barrier.
	flush(tenant int) error
	close()
}

// wireClient speaks the binary protocol over one TCP connection.
type wireClient struct {
	in  *inputs
	c   *wire.Client
	res []core.Result
}

func dialWire(in *inputs, addr string) (*wireClient, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{in: in, c: c}, nil
}

func (w *wireClient) ingest(f, _ int) (int, error) {
	edges := w.in.frame(f)
	retries := 0
	if err := w.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return 0, err
	}
	for {
		accepted, rejected, err := w.c.Ingest(edges)
		if err != nil {
			return retries, err
		}
		if rejected == 0 {
			return retries, nil
		}
		edges = edges[accepted:]
		if retries++; retries > maxRetries {
			return retries, errNeverAccepted
		}
		time.Sleep(retryBackoff)
	}
}

func (w *wireClient) query(accuracy bool, b, _ int) ([]core.Result, error) {
	qs := w.in.pool
	if accuracy {
		qs = w.in.accuracy
	}
	if err := w.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return nil, err
	}
	res, err := w.c.Query(w.res[:0], qs[b])
	w.res = res
	if err == nil && len(res) != len(qs[b]) {
		err = fmt.Errorf("query answered %d of %d", len(res), len(qs[b]))
	}
	return res, err
}

func (w *wireClient) flush(int) error {
	if err := w.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	return w.c.Flush()
}

func (w *wireClient) close() { w.c.Close() }

// httpClient speaks NDJSON/JSON over one keep-alive HTTP/1.1 connection.
type httpClient struct {
	in      *inputs
	base    string
	tenants []string // empty on a single-engine server
	hc      *http.Client
	body    bytes.Buffer
	res     []core.Result
}

func dialHTTP(in *inputs, addr string, tenants []string) (*httpClient, error) {
	h := &httpClient{
		in:      in,
		base:    "http://" + addr,
		tenants: tenants,
		hc: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DialContext:         (&net.Dialer{Timeout: opTimeout}).DialContext,
			},
		},
	}
	// Open the connection now so set-up, not the first request, pays for it.
	resp, err := h.hc.Get(h.base + "/healthz")
	if err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	return h, nil
}

func (h *httpClient) path(tenant int, leaf string) string {
	if len(h.tenants) == 0 {
		return h.base + leaf
	}
	return h.base + "/t/" + h.tenants[tenant] + leaf
}

// post sends body and leaves the reply in h.body.
func (h *httpClient) post(url, contentType string, body []byte) (int, error) {
	resp, err := h.hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	h.body.Reset()
	if _, err := h.body.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (h *httpClient) ingest(f, tenant int) (int, error) {
	body := h.in.frameBody[f]
	url := h.path(tenant, "/ingest")
	retries := 0
	for {
		status, err := h.post(url, "application/x-ndjson", body)
		if err != nil {
			return retries, err
		}
		var reply struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(h.body.Bytes(), &reply); err != nil {
			return retries, fmt.Errorf("ingest reply: %w", err)
		}
		switch status {
		case http.StatusOK:
			return retries, nil
		case http.StatusTooManyRequests:
			for n := reply.Accepted; n > 0; n-- {
				body = body[bytes.IndexByte(body, '\n')+1:]
			}
			if retries++; retries > maxRetries {
				return retries, errNeverAccepted
			}
			time.Sleep(retryBackoff)
		default:
			return retries, fmt.Errorf("ingest status %d", status)
		}
	}
}

var estimateKey = []byte(`"estimate":`)

func (h *httpClient) query(accuracy bool, b, tenant int) ([]core.Result, error) {
	bodies, qs := h.in.poolBody, h.in.pool
	if accuracy {
		bodies, qs = h.in.accuracyBody, h.in.accuracy
	}
	status, err := h.post(h.path(tenant, "/query"), "application/json", bodies[b])
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("query status %d", status)
	}
	h.res = h.res[:0]
	if accuracy {
		var reply struct {
			Results []struct {
				Estimate   int64   `json:"estimate"`
				ErrorBound float64 `json:"error_bound"`
				Confidence float64 `json:"confidence"`
			} `json:"results"`
		}
		if err := json.Unmarshal(h.body.Bytes(), &reply); err != nil {
			return nil, fmt.Errorf("query reply: %w", err)
		}
		for _, r := range reply.Results {
			h.res = append(h.res, core.Result{Estimate: r.Estimate, ErrorBound: r.ErrorBound, Confidence: r.Confidence})
		}
	} else {
		// The timed path reads only the estimates: a full JSON decode of a
		// 512-result reply would cost the load generator more CPU than the
		// server spends answering it.
		raw := h.body.Bytes()
		for {
			i := bytes.Index(raw, estimateKey)
			if i < 0 {
				break
			}
			raw = raw[i+len(estimateKey):]
			v, digits, neg := int64(0), 0, false
			if len(raw) > 0 && raw[0] == '-' {
				neg, raw = true, raw[1:]
			}
			for digits < len(raw) && raw[digits] >= '0' && raw[digits] <= '9' {
				v = v*10 + int64(raw[digits]-'0')
				digits++
			}
			if digits == 0 {
				return nil, errors.New("query reply: estimate is not a number")
			}
			if neg {
				v = -v
			}
			h.res = append(h.res, core.Result{Estimate: v})
		}
	}
	if len(h.res) != len(qs[b]) {
		return h.res, fmt.Errorf("query answered %d of %d", len(h.res), len(qs[b]))
	}
	return h.res, nil
}

func (h *httpClient) flush(tenant int) error {
	status, err := h.post(h.path(tenant, "/ingest?sync=1"), "application/x-ndjson", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("flush status %d", status)
	}
	return nil
}

func (h *httpClient) close() { h.hc.CloseIdleConnections() }
