package api

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// json.go is the realize route's codec: the request, decoded by
// DecodeRealizeRequest, and the response, written by AppendJSON. Both are
// written by hand for the plain shapes the service sends and receives, and
// produce or accept exactly what encoding/json does, which stays the
// reference the tests compare against. Every other request body, any kind
// string that needs escaping and any sequence that is not a plain integer
// array go through encoding/json.

// DecodeRealizeRequest decodes body, a whole request body, into *req,
// which it first resets: what a json.Decoder with DisallowUnknownFields
// decodes from body into a zero RealizeRequest, error text included. The
// plain shape every client sends is decoded by hand in one pass: one JSON
// object in which sequence, variant, options and omit_edges each appear at
// most once, spelled exactly; an options object holding only its seven
// fields, each at most once; strings without escapes or bytes ≥ 0x80;
// integers that fit their fields; and a sequence that is a plain integer
// array, walked twice (count, then fill). Such a sequence is filled into
// req.Sequence's array when that has room for it, and into a new array of
// exactly its length otherwise, so a caller that passes an array in gives
// up its contents. Any other body goes to that json.Decoder, so the
// standard library decides every other value and every error. As with
// json.Decoder, bytes after the first JSON value are ignored.
func DecodeRealizeRequest(body []byte, req *RealizeRequest) error {
	var plain RealizeRequest
	if plain.decodePlain(body, req.Sequence) {
		*req = plain
		return nil
	}
	*req = RealizeRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// requestFields and optionFields are the members the hand decoder takes,
// spelled as their json tags spell them.
var (
	requestFields = []string{"sequence", "variant", "options", "omit_edges"}
	optionFields  = []string{"model", "seed", "strict", "cap_mul", "sort", "max_rounds", "scheduler"}
)

// decodePlain decodes data into r if it has the plain shape
// DecodeRealizeRequest describes, filling the sequence into room's array
// when it fits; ok is false, with r part-filled, for any other body.
func (r *RealizeRequest) decodePlain(data []byte, room []int) bool {
	var seen uint
	_, ok := object(data, skipSpace(data, 0), func(name []byte, i int) (int, bool) {
		switch known(requestFields, name, &seen) {
		case "sequence":
			n, end, ok := scanInts(data, i, nil)
			if !ok {
				return 0, false
			}
			// A nil room would decode [] as nil, where encoding/json
			// decodes an empty slice.
			if room != nil && n <= cap(room) {
				r.Sequence = room[:n]
			} else {
				r.Sequence = make([]int, n)
			}
			scanInts(data, i, r.Sequence)
			return end, true
		case "variant":
			return decodeString(data, i, &r.Variant)
		case "options":
			r.Options = new(OptionsJSON)
			return r.Options.decodePlain(data, i)
		case "omit_edges":
			return decodeBool(data, i, &r.OmitEdges)
		}
		return 0, false
	})
	return ok
}

// decodePlain decodes the plain options object at data[i] into o and
// returns the index just past it.
func (o *OptionsJSON) decodePlain(data []byte, i int) (int, bool) {
	var seen uint
	return object(data, i, func(name []byte, i int) (int, bool) {
		switch known(optionFields, name, &seen) {
		case "model":
			return decodeString(data, i, &o.Model)
		case "seed":
			return decodeInt(data, i, &o.Seed)
		case "strict":
			return decodeBool(data, i, &o.Strict)
		case "cap_mul":
			return decodeInt(data, i, &o.CapMul)
		case "sort":
			return decodeString(data, i, &o.Sort)
		case "max_rounds":
			return decodeInt(data, i, &o.MaxRounds)
		case "scheduler":
			return decodeString(data, i, &o.Scheduler)
		}
		return 0, false
	})
}

// known returns the entry of names that name spells exactly and marks it
// in seen, bit k for names[k]; it returns "" for any other name and for
// one seen before.
func known(names []string, name []byte, seen *uint) string {
	for k, n := range names {
		if n == string(name) {
			if *seen&(1<<k) != 0 {
				return ""
			}
			*seen |= 1 << k
			return n
		}
	}
	return ""
}

// object walks the JSON object at data[i], calling member with each
// member's name and the index of its value; member decodes the value and
// returns the index just past it. object returns the index just past the
// closing brace. ok is false unless data[i] starts an object whose names
// are plain strings and whose every value member takes.
func object(data []byte, i int, member func(name []byte, i int) (int, bool)) (end int, ok bool) {
	if i == len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for {
		name, next, ok := plainString(data, i)
		if !ok {
			return 0, false
		}
		i = skipSpace(data, next)
		if i == len(data) || data[i] != ':' {
			return 0, false
		}
		if i, ok = member(name, skipSpace(data, i+1)); !ok {
			return 0, false
		}
		i = skipSpace(data, i)
		if i == len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// plainString returns the contents of the JSON string at data[i] and the
// index just past it. ok is false unless its every byte lies in 0x20–0x7f
// and none is a backslash, so that it means what it spells.
func plainString(data []byte, i int) (s []byte, next int, ok bool) {
	if i == len(data) || data[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, 0, false
		}
	}
	return nil, 0, false
}

func decodeString(data []byte, i int, dst *string) (int, bool) {
	s, next, ok := plainString(data, i)
	*dst = string(s)
	return next, ok
}

func decodeBool(data []byte, i int, dst *bool) (int, bool) {
	switch {
	case bytes.HasPrefix(data[i:], []byte("true")):
		*dst = true
		return i + 4, true
	case bytes.HasPrefix(data[i:], []byte("false")):
		*dst = false
		return i + 5, true
	}
	return 0, false
}

// decodeInt decodes an integer that fits an int; one that fits only dst's
// wider type is encoding/json's to decode.
func decodeInt[T int | int64](data []byte, i int, dst *T) (int, bool) {
	v, next, ok := parseInt(data, i)
	*dst = T(v)
	return next, ok
}

// scanInts walks the JSON array of integers at data[i] and returns how
// many it holds and the index just past it, storing them in out unless out
// is nil; a non-nil out must have that length. ok is false for anything
// else, a syntax error or an integer parseInt does not take included. A
// counting pass with a nil out allocates nothing, so a value left to
// encoding/json costs the fast path nothing.
func scanInts(data []byte, i int, out []int) (n, end int, ok bool) {
	if i == len(data) || data[i] != '[' {
		return 0, 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return 0, i + 1, true
	}
	for {
		v, next, ok := parseInt(data, i)
		if !ok {
			return 0, 0, false
		}
		if out != nil {
			out[n] = v
		}
		n++
		i = skipSpace(data, next)
		if i == len(data) {
			return 0, 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return n, i + 1, true
		default:
			return 0, 0, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace. Every whitespace byte is at most ' ', so a byte above it
// ends the scan with one comparison.
func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' {
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
		if u > math.MaxInt/10 || u == math.MaxInt/10 && d > math.MaxInt%10 {
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
	b = append(b, `{"kind":`...)
	b = appendString(b, r.Kind)
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

// appendString appends s quoted as encoding/json quotes it: printable
// ASCII other than " \ < > & stands for itself, and any other string goes
// through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := range len(s) {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEdges appends `,"edges":[[u,v],...]` for the (u < v) pairs of adj,
// or nothing when it has none (omitempty). Each row's `[u,` is formatted
// once and copied before each of its pairs.
func appendEdges(b []byte, adj [][]int) []byte {
	mark := len(b)
	b = append(b, `,"edges":[`...)
	open := len(b)
	var buf [24]byte
	for u, a := range adj {
		row := appendID(append(buf[:0], ",["...), u)
		row = append(row, ',')
		for _, v := range a {
			if v > u {
				if len(b) == open {
					b = append(b, row[1:]...)
				} else {
					b = append(b, row...)
				}
				b = append(appendID(b, v), ']')
			}
		}
	}
	if len(b) == open {
		return b[:mark]
	}
	return append(b, ']')
}

// digits2 spells every number below 100 in two digits.
const digits2 = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendID appends the decimal form of a vertex ID v ≥ 0: from digits2
// below 10,000, through strconv above.
func appendID(b []byte, v int) []byte {
	switch {
	case v < 10:
		return append(b, byte('0'+v))
	case v < 100:
		return append(b, digits2[2*v], digits2[2*v+1])
	case v < 1000:
		r := 2 * (v % 100)
		return append(b, byte('0'+v/100), digits2[r], digits2[r+1])
	case v < 10000:
		q, r := 2*(v/100), 2*(v%100)
		return append(b, digits2[q], digits2[q+1], digits2[r], digits2[r+1])
	}
	return strconv.AppendInt(b, int64(v), 10)
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
