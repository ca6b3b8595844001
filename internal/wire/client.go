package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// RemoteError is a TypeError frame surfaced by the client: the server
// rejected the conversation and closed the connection.
type RemoteError struct {
	Code int
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
}

// Client is a strictly request/reply wire-protocol client over one
// connection. It is not safe for concurrent use; open one Client per
// goroutine (the protocol itself multiplexes by connection, not by
// request).
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	dec  *Decoder
	buf  []byte
}

// Dial connects a Client to a wire-protocol listener.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 64<<10),
		dec:  NewDecoder(bufio.NewReaderSize(conn, 64<<10)),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip writes the frame in c.buf and reads one reply frame, turning
// TypeError replies into *RemoteError.
func (c *Client) roundTrip() (Frame, error) {
	if _, err := c.bw.Write(c.buf); err != nil {
		return Frame{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Frame{}, err
	}
	f, err := c.dec.Next()
	if err != nil {
		return Frame{}, err
	}
	if f.Type == TypeError {
		code, msg, derr := DecodeError(f.Payload)
		if derr != nil {
			return Frame{}, derr
		}
		return Frame{}, &RemoteError{Code: int(code), Msg: msg}
	}
	return f, nil
}

// Ingest offers one edge batch as a single frame and returns the server's
// ack. Accepted edges are applied by the time a later Flush returns (the
// server folds them behind the ack). rejected > 0 means that suffix was
// refused — a tenant over its quota; an engine-backed server accepts a
// frame whole — and the caller may retry
// edges[accepted:] after a backoff.
func (c *Client) Ingest(edges []stream.Edge) (accepted, rejected int, err error) {
	c.buf = AppendIngest(c.buf[:0], edges)
	f, err := c.roundTrip()
	if err != nil {
		return 0, 0, err
	}
	if f.Type != TypeAck {
		return 0, 0, fmt.Errorf("wire: ingest reply type 0x%02x, want ack", f.Type)
	}
	return DecodeAck(f.Payload)
}

// IngestAll streams edges in chunks, retrying every refused suffix until
// the server has accepted the whole slice. It returns the number of
// 429-style retry rounds it took (none against an engine-backed server).
func (c *Client) IngestAll(edges []stream.Edge, chunk int) (retries int64, err error) {
	if chunk <= 0 {
		chunk = 8192
	}
	for lo := 0; lo < len(edges); {
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		accepted, rejected, err := c.Ingest(edges[lo:hi])
		if err != nil {
			return retries, err
		}
		lo += accepted
		if rejected > 0 {
			retries++
			time.Sleep(200 * time.Microsecond)
		}
	}
	return retries, nil
}

// Query answers a batch of edge queries, appending to dst.
func (c *Client) Query(dst []core.Result, qs []core.EdgeQuery) ([]core.Result, error) {
	c.buf = AppendQuery(c.buf[:0], qs)
	f, err := c.roundTrip()
	if err != nil {
		return dst, err
	}
	if f.Type != TypeResults {
		return dst, fmt.Errorf("wire: query reply type 0x%02x, want results", f.Type)
	}
	return DecodeResults(dst, f.Payload)
}

// Flush drains the server's ingest pipeline, establishing
// read-your-writes for everything this (and every other) connection has
// had accepted.
func (c *Client) Flush() error {
	c.buf = AppendFlush(c.buf[:0])
	f, err := c.roundTrip()
	if err != nil {
		return err
	}
	if f.Type != TypeFlushAck {
		return fmt.Errorf("wire: flush reply type 0x%02x, want flush ack", f.Type)
	}
	return nil
}

// Ping probes the server without mutating it, returning the server's live
// gauges and the round-trip time.
func (c *Client) Ping() (Pong, time.Duration, error) {
	c.buf = AppendPing(c.buf[:0])
	start := time.Now()
	f, err := c.roundTrip()
	rtt := time.Since(start)
	if err != nil {
		return Pong{}, rtt, err
	}
	if f.Type != TypePong {
		return Pong{}, rtt, fmt.Errorf("wire: ping reply type 0x%02x, want pong", f.Type)
	}
	p, err := DecodePong(f.Payload)
	return p, rtt, err
}

// SelectTenant binds the connection to the named tenant on a
// multi-tenant server: every later frame on this connection is scoped
// to it. An unknown tenant surfaces as *RemoteError with CodeNotFound.
func (c *Client) SelectTenant(name string) error {
	c.buf = AppendTenantSelect(c.buf[:0], name)
	f, err := c.roundTrip()
	if err != nil {
		return err
	}
	if f.Type != TypeTenantAck {
		return fmt.Errorf("wire: tenant-select reply type 0x%02x, want tenant ack", f.Type)
	}
	return nil
}

// SetDeadline bounds the next round trip(s); the zero time clears it, so
// a dead server surfaces as a timeout instead of a hung call.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }
