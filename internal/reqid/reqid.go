// Package reqid is the serving tier's request-correlation currency:
// process-unique request IDs, W3C traceparent handling, and the
// context plumbing that threads both from an HTTP header through
// Engine.Submit down to every trace span and query-log line.
//
// Crowd queries are long-lived and fail in partial ways; the only way
// to reason about one of them after the fact — or across the services
// a request passes through — is a single ID minted (or accepted) at
// the edge and stamped on everything the request touches. The ID is
// deliberately a plain string: caller-supplied IDs pass through
// verbatim (after sanitizing), so an upstream load balancer's
// correlation scheme survives the hop into CDB.
package reqid

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// Correlation carries one request's identity: the CDB request ID and
// the W3C traceparent it travels under.
type Correlation struct {
	// RequestID is the X-CDB-Request-ID value: caller-supplied or
	// minted at the serving edge, echoed on the response.
	RequestID string
	// TraceParent is the outgoing W3C traceparent header value.
	TraceParent string
}

type ctxKey struct{}

// With returns a context carrying c.
func With(ctx context.Context, c Correlation) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// From extracts the correlation from ctx (zero value when absent).
func From(ctx context.Context) Correlation {
	if ctx == nil {
		return Correlation{}
	}
	c, _ := ctx.Value(ctxKey{}).(Correlation)
	return c
}

// seq breaks ties when the random source fails or stalls: even then
// two IDs minted by this process differ.
var seq atomic.Uint64

// New mints a process-unique request ID: "req-" + 16 hex chars. The
// randomness makes IDs unique across processes too, which is what
// lets traces from several processes be joined by ID without
// coordination.
func New() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], seq.Add(1)<<16|0xdead)
	} else {
		// Fold in the sequence number so even a (misbehaving) random
		// source repeating itself cannot collide within the process.
		binary.BigEndian.PutUint64(b[:], binary.BigEndian.Uint64(b[:])^seq.Add(1)<<48)
	}
	return "req-" + hex.EncodeToString(b[:])
}

// maxIDLen bounds accepted caller-supplied IDs: long enough for any
// sane upstream scheme, short enough to keep log lines and span
// payloads honest.
const maxIDLen = 128

// Sanitize makes an untrusted caller-supplied ID safe to log and
// serialize: control characters and spaces are dropped (they would
// corrupt JSONL and log lines), and the result is capped at 128
// bytes. Returns "" for an empty or all-invalid input — the caller
// should then mint one.
func Sanitize(id string) string {
	if len(id) > maxIDLen {
		id = id[:maxIDLen]
	}
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		if c := id[i]; c > 0x20 && c < 0x7f {
			out = append(out, c)
		}
	}
	return string(out)
}

// TraceParent is a parsed W3C trace-context traceparent (version 00):
// 16-byte trace ID shared by every hop of a distributed operation,
// 8-byte parent (span) ID naming the hop itself.
type TraceParent struct {
	TraceID  [16]byte
	ParentID [8]byte
	Flags    byte
}

// NewTraceParent mints a fresh trace: random trace and parent IDs,
// sampled flag set.
func NewTraceParent() TraceParent {
	var tp TraceParent
	fill(tp.TraceID[:])
	fill(tp.ParentID[:])
	tp.Flags = 0x01
	return tp
}

// Child keeps the caller's trace ID but mints a fresh parent ID: the
// server becomes a new span in the caller's distributed trace instead
// of impersonating the hop that called it.
func (tp TraceParent) Child() TraceParent {
	out := tp
	fill(out.ParentID[:])
	return out
}

// String renders the canonical header value:
// 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>.
func (tp TraceParent) String() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, tp.TraceID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, tp.ParentID[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, []byte{tp.Flags})
	return string(buf)
}

// ParseTraceParent parses a version-00 traceparent header. Returns
// ok=false for anything malformed — including uppercase hex, which the
// spec's grammar excludes, and the all-zero trace or parent IDs it
// declares invalid — so callers fall back to minting a fresh trace
// rather than propagating garbage. An accepted header renders back to
// itself through String.
func ParseTraceParent(s string) (TraceParent, bool) {
	var tp TraceParent
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tp, false
	}
	var fb [1]byte
	if !decodeLowerHex(tp.TraceID[:], s[3:35]) || !decodeLowerHex(tp.ParentID[:], s[36:52]) || !decodeLowerHex(fb[:], s[53:55]) {
		return tp, false
	}
	tp.Flags = fb[0]
	if tp.TraceID == ([16]byte{}) || tp.ParentID == ([8]byte{}) {
		return tp, false
	}
	return tp, true
}

// decodeLowerHex decodes s into dst, accepting lowercase hex digits only
// (the trace-context grammar's HEXDIGLC).
func decodeLowerHex(dst []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

func fill(b []byte) {
	if _, err := rand.Read(b); err != nil {
		n := seq.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * (uint(i) % 8)))
		}
		b[0] |= 1 // never all-zero
	}
}
