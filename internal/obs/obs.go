// Package obs is the dependency-free observability toolkit shared by the
// serving stack: request trace IDs propagated through context.Context,
// fixed-bucket histograms rendered in the Prometheus text exposition format,
// engine phase profiles, and a bounded flight recorder for the
// slowest jobs.
//
// Everything here is deliberately passive: nothing in this package starts
// goroutines, takes locks on hot paths (histograms and profiles are atomic),
// or feeds back into execution. In particular, phase profiling is delivered
// through a callback (ncc.Config.Profile) and never enters the engine's
// Trace or Metrics, so the driver-conformance guarantee — byte-identical
// traces across drivers — holds with profiling on or off.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// HeaderRequestID is the HTTP header carrying a request's trace ID, both
// inbound (honored when valid) and outbound (always echoed).
const HeaderRequestID = "X-Request-Id"

// fallbackSeq guarantees distinct IDs if crypto/rand ever fails (it does not
// on supported platforms).
var fallbackSeq atomic.Int64

// NewTraceID mints a 16-hex-character random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015d", fallbackSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether an inbound ID is safe to adopt: non-empty, at
// most 128 bytes, and printable ASCII without spaces, quotes, or backslashes
// (so the ID embeds verbatim in log lines, JSON, and Prometheus labels).
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

type traceKey struct{}

// WithTraceID returns a context carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceID returns the context's trace ID, or "" when none was attached.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}
