package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Encoder writes one graphwire stream: header, an optional JSON metadata
// chunk, an optional graph section, and the END chunk (WIRE.md §3). The
// chunk sequence is produced incrementally — each framed chunk is written
// (and, if Flush is set, flushed) as soon as it is complete, so a consumer
// can start validating before the graph section is finished and the
// first byte of an HTTP response does not wait on the last vertex.
//
// Call order: NewEncoder, then at most one WriteJSONMeta, then at most one
// WriteGraph, then Close. The zero number of either section is valid
// (WIRE.md §3: both are optional; END is not).
type Encoder struct {
	w io.Writer

	// chunkTarget is the ADJ payload size the encoder aims for before
	// cutting a chunk: DefaultChunkTarget unless a test lowers it. A vertex
	// block is never split, so a payload can overshoot by one block.
	chunkTarget int

	// Flush, when non-nil, runs after every framed chunk reaches w —
	// the hook an HTTP handler uses to push frames to the client as they
	// are produced.
	Flush func() error

	buf        []byte // frame assembly buffer, reused across chunks
	headerSent bool
	metaSent   bool
	graphSent  bool
	closed     bool
	err        error // first write error; the encoder is dead after one
}

// NewEncoder returns an Encoder streaming to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, chunkTarget: DefaultChunkTarget}
}

// writeHeader emits the 5-byte stream header once (WIRE.md §3).
func (e *Encoder) writeHeader() error {
	if e.headerSent {
		return nil
	}
	e.headerSent = true
	hdr := append(append(make([]byte, 0, headerSize), magic[:]...), Version)
	return e.push(hdr)
}

// push writes raw bytes and runs the Flush hook, latching the first error.
func (e *Encoder) push(b []byte) error {
	if e.err != nil {
		return e.err
	}
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return err
	}
	if e.Flush != nil {
		if err := e.Flush(); err != nil {
			e.err = err
			return err
		}
	}
	return nil
}

// emit frames one chunk payload and pushes it.
func (e *Encoder) emit(payload []byte) error {
	if err := e.writeHeader(); err != nil {
		return err
	}
	e.buf = appendFrame(e.buf[:0], payload)
	return e.push(e.buf)
}

// WriteJSONMeta emits the stream's single JMETA chunk (WIRE.md §5.4)
// carrying an application-defined JSON document. It must precede
// WriteGraph; the document must be non-empty.
func (e *Encoder) WriteJSONMeta(doc []byte) error {
	switch {
	case e.closed:
		return errors.New("wire: WriteJSONMeta after Close")
	case e.metaSent:
		return errors.New("wire: second JMETA chunk (at most one per stream)")
	case e.graphSent:
		return errors.New("wire: JMETA chunk must precede the graph section")
	case len(doc) == 0:
		return errors.New("wire: empty JMETA document")
	}
	e.metaSent = true
	payload := append(make([]byte, 0, 1+len(doc)), chunkJMeta)
	return e.emit(append(payload, doc...))
}

// WriteGraph emits the graph section: one META chunk with the dimensions,
// then ADJ chunks covering vertices 0..n-1 in order (WIRE.md §5, §6).
// adj is the full symmetric adjacency (adj[u] lists every neighbor of u,
// sorted ascending, as in graphrealize.Graph); only forward neighbors
// (v > u) are encoded, so each edge costs one delta varint. The encoder
// rejects non-canonical input — unsorted or duplicate neighbors, self
// loops, out-of-range endpoints — rather than emit a stream no conforming
// decoder would accept.
func (e *Encoder) WriteGraph(n int, adj [][]int) error {
	switch {
	case e.closed:
		return errors.New("wire: WriteGraph after Close")
	case e.graphSent:
		return errors.New("wire: second graph section (at most one per stream)")
	case n < 0 || len(adj) > n:
		return fmt.Errorf("wire: adjacency for %d vertices does not fit n=%d", len(adj), n)
	}
	e.graphSent = true

	m := 0
	for u := range adj {
		prev := u // forward neighbors must strictly ascend from u
		for _, v := range adj[u] {
			if v <= u {
				continue
			}
			if v <= prev {
				return fmt.Errorf("wire: adjacency of vertex %d is not sorted strictly ascending", u)
			}
			if v >= n {
				return fmt.Errorf("wire: edge (%d,%d) out of range [0,%d)", u, v, n)
			}
			prev = v
			m++
		}
	}

	meta := append(make([]byte, 0, 1+2*binary64Max), byte(chunkMeta))
	meta = uvarint(meta, uint64(n))
	meta = uvarint(meta, uint64(m))
	if err := e.emit(meta); err != nil {
		return err
	}

	// Assemble vertex blocks into bounded ADJ payloads. The payload prefix
	// (type, first, count) is patched in when the chunk is cut, so blocks
	// append straight into one reusable buffer.
	var (
		body  []byte
		first int
		count int
	)
	cut := func() error {
		if count == 0 {
			return nil
		}
		payload := append(make([]byte, 0, 1+2*binary64Max+len(body)), byte(chunkAdj))
		payload = uvarint(payload, uint64(first))
		payload = uvarint(payload, uint64(count))
		payload = append(payload, body...)
		body = body[:0]
		count = 0
		return e.emit(payload)
	}
	for u := 0; u < n; u++ {
		if count == 0 {
			first = u
		}
		var fwd []int
		if u < len(adj) {
			fwd = adj[u]
		}
		deg := 0
		for _, v := range fwd {
			if v > u {
				deg++
			}
		}
		body = uvarint(body, uint64(deg))
		prev := u
		for _, v := range fwd {
			if v <= u {
				continue
			}
			body = uvarint(body, uint64(v-prev))
			prev = v
		}
		count++
		if len(body) >= e.chunkTarget {
			if err := cut(); err != nil {
				return err
			}
		}
	}
	return cut()
}

// Close emits the END chunk (WIRE.md §5.3) and finishes the stream. It
// does not close the underlying writer. Close on an empty encoder still
// writes a valid header-plus-END stream.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return e.emit([]byte{chunkEnd})
}

// binary64Max is the worst-case byte length of one uvarint (LEB128 of a
// 64-bit value).
const binary64Max = 10

// EncodeGraph renders a complete single-graph stream (header, META+ADJ,
// END) into a fresh byte slice — the convenience form the job store and
// tests use. The stream round-trips through Decode.
func EncodeGraph(n int, adj [][]int) ([]byte, error) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.WriteGraph(n, adj); err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
