package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestClusterFrameRoundTrips covers the ping/pong pair.
func TestClusterFrameRoundTrips(t *testing.T) {
	var buf []byte
	buf = AppendPing(buf)
	buf = AppendPong(buf, Pong{StreamTotal: -7, QueueDepth: 3, Generations: 2})
	buf = AppendPong(buf, Pong{StreamTotal: 1 << 60, QueueDepth: 0, Generations: 1})

	dec := NewDecoder(bytes.NewReader(buf))
	next := func(wantType byte, wantLen int) Frame {
		t.Helper()
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if f.Type != wantType {
			t.Fatalf("frame type 0x%02x, want 0x%02x", f.Type, wantType)
		}
		if len(f.Payload) != wantLen {
			t.Fatalf("payload %d bytes, want %d", len(f.Payload), wantLen)
		}
		return f
	}

	next(TypePing, 0)

	f := next(TypePong, PongSize)
	p, err := DecodePong(f.Payload)
	if err != nil {
		t.Fatalf("DecodePong: %v", err)
	}
	if p != (Pong{StreamTotal: -7, QueueDepth: 3, Generations: 2}) {
		t.Fatalf("pong round trip: %+v", p)
	}
	f = next(TypePong, PongSize)
	if p, _ = DecodePong(f.Payload); p.StreamTotal != 1<<60 {
		t.Fatalf("pong stream total: %d", p.StreamTotal)
	}

	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("trailing frame: %v", err)
	}
}

// TestClusterFramePayloadValidation rejects a truncated pong payload with
// the typed payload error.
func TestClusterFramePayloadValidation(t *testing.T) {
	if _, err := DecodePong(make([]byte, PongSize-1)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short pong: %v", err)
	}
}

// TestDecoderAcceptsNewTypes makes sure the decoder's type range covers
// the highest registered frame and still rejects the next value and the
// reserved snapshot range 0x0A–0x0D.
func TestDecoderAcceptsNewTypes(t *testing.T) {
	for _, typ := range []byte{TypePong, TypeTenantSelect, TypeTenantAck} {
		frame := appendHeader(nil, typ, 0)
		if _, err := NewDecoder(bytes.NewReader(frame)).Next(); err != nil {
			t.Fatalf("type 0x%02x rejected: %v", typ, err)
		}
	}
	for _, typ := range []byte{0x0A, 0x0B, 0x0C, 0x0D, TypeTenantAck + 1} {
		frame := appendHeader(nil, typ, 0)
		if _, err := NewDecoder(bytes.NewReader(frame)).Next(); !errors.Is(err, ErrUnknownType) {
			t.Fatalf("type 0x%02x accepted: %v", typ, err)
		}
	}
}

// TestTenantFrameRoundTrips covers the multi-tenant select/ack pair.
func TestTenantFrameRoundTrips(t *testing.T) {
	var buf []byte
	buf = AppendTenantSelect(buf, "acme-7")
	buf = AppendTenantAck(buf)

	dec := NewDecoder(bytes.NewReader(buf))
	f, err := dec.Next()
	if err != nil || f.Type != TypeTenantSelect {
		t.Fatalf("select frame: type 0x%02x, err %v", f.Type, err)
	}
	name, err := DecodeTenantSelect(f.Payload)
	if err != nil || name != "acme-7" {
		t.Fatalf("tenant name round trip: %q, %v", name, err)
	}
	if f, err = dec.Next(); err != nil || f.Type != TypeTenantAck || len(f.Payload) != 0 {
		t.Fatalf("ack frame: type 0x%02x len %d, err %v", f.Type, len(f.Payload), err)
	}

	if _, err := DecodeTenantSelect(nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("empty tenant name: %v", err)
	}
	long := make([]byte, MaxTenantNameLen+1)
	if _, err := DecodeTenantSelect(long); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("oversized tenant name: %v", err)
	}
}
