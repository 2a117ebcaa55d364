package api

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// json.go is the realize route's codec for its two large arrays: the
// response's edge list and the request's sequence. Both are written by hand
// and produce or accept exactly what encoding/json does, which stays the
// reference the tests compare against. Every other body, the response's
// kind string and any sequence that is not a plain integer array go
// through encoding/json.

// Sequence is a request's degree (or ρ) sequence. It decodes a plain JSON
// integer array in one pass; any other value goes to encoding/json.
type Sequence []int

// UnmarshalJSON parses a JSON array of integers that fit an int into a new
// slice of exactly its length; [] gives an empty, non-nil one, as with
// encoding/json. Any other value (null, floats, exponents, strings, nested
// values, out-of-range integers) is decoded by json.Unmarshal into a []int,
// so the standard library decides every value and every error it decides
// for a []int field. s is left as it was for that hand-over, even by an
// array that fails part-way such as [1,2.5]: encoding/json reuses the slice
// an earlier "sequence" member filled, keeping the elements it rejects.
func (s *Sequence) UnmarshalJSON(data []byte) error {
	n, ok := scanInts(data, nil)
	if !ok {
		return json.Unmarshal(data, (*[]int)(s))
	}
	out := make(Sequence, n)
	scanInts(data, out)
	*s = out
	return nil
}

// scanInts walks data, a whitespace-padded JSON array of integers, and
// returns how many it holds, storing them in out unless out is nil; a
// non-nil out must have that length. ok is false for anything else, a
// syntax error or an integer parseInt does not take included. A counting
// pass with a nil out allocates nothing, so a value left to encoding/json
// costs the fast path nothing.
func scanInts(data []byte, out Sequence) (n int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '[' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return 0, skipSpace(data, i+1) == len(data)
	}
	for {
		v, next, ok := parseInt(data, i)
		if !ok {
			return 0, false
		}
		if out != nil {
			out[n] = v
		}
		n++
		i = skipSpace(data, next)
		if i == len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return n, skipSpace(data, i+1) == len(data)
		default:
			return 0, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// parseInt reads the digits of a JSON integer -?(0|[1-9][0-9]*) at data[i:]
// and returns its value with the index just past them. ok is false when
// data[i:] does not start with one or when it leaves int's range (MinInt
// included: encoding/json decides it). A fraction or exponent after the
// digits is the caller's to reject: it is not a separator.
func parseInt(data []byte, i int) (v, next int, ok bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		if u > (math.MaxInt-d)/10 {
			return 0, i, false
		}
		u = u*10 + d
	}
	if i == start || (data[start] == '0' && i-start > 1) {
		return 0, i, false // no digits, or a leading zero
	}
	if neg {
		return -int(u), i, true
	}
	return int(u), i, true
}

// AppendJSON appends the JSON body of r to b and returns the extended
// buffer: exactly the bytes json.NewEncoder(w).Encode(r) writes, trailing
// newline included, with r.Edges set to the (u < v) pairs of adj in
// Graph.Edges order. r.Edges itself is not read; a nil adj, or one without
// an edge, omits the list, as omit_edges asks. ElapsedMS must be finite,
// as encoding/json requires; a measured duration always is.
func (r *RealizeResponse) AppendJSON(b []byte, adj [][]int) []byte {
	b = slices.Grow(b, r.jsonSize(adj))
	kind, _ := json.Marshal(r.Kind) // a string always marshals
	b = append(b, `{"kind":`...)
	b = append(b, kind...)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	b = appendEdges(b, adj)
	if len(r.Envelope) > 0 {
		b = append(b, `,"envelope":[`...)
		for i, d := range r.Envelope {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, ']')
	}
	st := &r.Stats
	b = append(b, `,"stats":{"n":`...)
	b = strconv.AppendInt(b, int64(st.N), 10)
	b = append(b, `,"rounds":`...)
	b = strconv.AppendInt(b, int64(st.Rounds), 10)
	b = append(b, `,"charged_rounds":`...)
	b = strconv.AppendInt(b, int64(st.ChargedRounds), 10)
	b = append(b, `,"messages":`...)
	b = strconv.AppendInt(b, st.Messages, 10)
	b = append(b, `,"capacity":`...)
	b = strconv.AppendInt(b, int64(st.Capacity), 10)
	b = append(b, `,"max_sent":`...)
	b = strconv.AppendInt(b, int64(st.MaxSent), 10)
	b = append(b, `,"max_recv":`...)
	b = strconv.AppendInt(b, int64(st.MaxRecv), 10)
	b = append(b, `,"cap_violations":`...)
	b = strconv.AppendInt(b, int64(st.CapViolations), 10)
	if st.Phases != 0 {
		b = append(b, `,"phases":`...)
		b = strconv.AppendInt(b, int64(st.Phases), 10)
	}
	b = append(b, `},"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, r.ElapsedMS)
	return append(b, "}\n"...)
}

// appendEdges appends `,"edges":[[u,v],...]` for the (u < v) pairs of adj,
// or nothing when it has none (omitempty).
func appendEdges(b []byte, adj [][]int) []byte {
	mark := len(b)
	b = append(b, `,"edges":[`...)
	open := len(b)
	for u, a := range adj {
		for _, v := range a {
			if v > u {
				if len(b) > open {
					b = append(b, ',')
				}
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(u), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(v), 10)
				b = append(b, ']')
			}
		}
	}
	if len(b) == open {
		return b[:mark]
	}
	return append(b, ']')
}

// jsonSize bounds AppendJSON's output from above for the usual response, so
// the buffer grows once: 512 bytes hold the fixed fields, and every listed
// number is at most as wide as r.N.
func (r *RealizeResponse) jsonSize(adj [][]int) int {
	ends := 0
	for _, a := range adj {
		ends += len(a)
	}
	w := 1
	for n := r.N; n >= 10; n /= 10 {
		w++
	}
	return 512 + len(r.Envelope)*(w+1) + ends/2*(2*w+4)
}

// appendFloat formats f as encoding/json does: like ES6, 'f' notation
// except below 1e-6 and from 1e21 on, with the exponent unpadded (e-7,
// not e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
