package wire

import (
	"io"
)

// limits bounds the resources a decoder will commit to one stream
// (WIRE.md §7). The zero value selects the package defaults.
type limits struct {
	// MaxNodes caps the vertex count a META chunk may declare
	// (default DefaultMaxNodes).
	MaxNodes int
	// MaxChunkBytes caps one chunk payload (default DefaultMaxChunkBytes).
	// Streams produced by this package's Encoder stay far below it.
	MaxChunkBytes int
}

func (l limits) norm() limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultMaxNodes
	}
	if l.MaxChunkBytes <= 0 {
		l.MaxChunkBytes = DefaultMaxChunkBytes
	}
	return l
}

// Message is one decoded graphwire stream.
type Message struct {
	// Meta is the JMETA chunk's JSON document, nil if the stream had none.
	Meta []byte
	// HasGraph reports whether the stream carried a graph section; N and
	// Adj are meaningful only when it is true (a stream of metadata alone —
	// e.g. a sweep response — has none).
	HasGraph bool
	// N is the vertex count.
	N int
	// M is the edge count declared by the META chunk and verified against
	// the ADJ chunks.
	M int
	// Adj is the full symmetric adjacency: Adj[u] lists every neighbor of
	// u in ascending order, exactly the graphrealize.Graph representation.
	Adj [][]int
}

// Decode reads and validates one complete graphwire stream from r under
// the default limits. It consumes exactly the stream's bytes (header
// through END chunk) and no more, so it can read directly from a network
// body. Every malformed input — truncation, bad magic or version, CRC
// mismatch, grammar violations, inconsistent dimensions — returns an
// error wrapping ErrFormat; Decode never panics on arbitrary input
// (WIRE.md §7, pinned by FuzzWireDecode).
func Decode(r io.Reader) (*Message, error) {
	return decodeLimits(r, limits{})
}

// decodeLimits is Decode with explicit resource limits.
func decodeLimits(r io.Reader, lim limits) (*Message, error) {
	lim = lim.norm()
	d := &decoder{r: r, lim: lim}
	if err := d.header(); err != nil {
		return nil, err
	}
	msg := &Message{}
	// Stream grammar (WIRE.md §3): JMETA? (META ADJ*)? END.
	for {
		payload, err := readFrame(d.r, lim.MaxChunkBytes)
		if err != nil {
			return nil, err
		}
		body := &byteReader{buf: payload, pos: 1}
		switch payload[0] {
		case chunkJMeta:
			if msg.Meta != nil {
				return nil, formatErr("second JMETA chunk")
			}
			if msg.HasGraph {
				return nil, formatErr("JMETA chunk after the graph section")
			}
			if body.rest() == 0 {
				return nil, formatErr("empty JMETA document")
			}
			msg.Meta = payload[1:]
		case chunkMeta:
			if err := d.meta(msg, body); err != nil {
				return nil, err
			}
		case chunkAdj:
			if err := d.adj(msg, body); err != nil {
				return nil, err
			}
		case chunkEnd:
			if body.rest() != 0 {
				return nil, formatErr("END chunk carries %d stray bytes", body.rest())
			}
			return d.finish(msg)
		default:
			// Unknown chunk types are an error under the current version:
			// the version byte, not chunk skipping, is the compatibility
			// mechanism (WIRE.md §8).
			return nil, formatErr("unknown chunk type 0x%02x", payload[0])
		}
	}
}

type decoder struct {
	r   io.Reader
	lim limits

	next    int // first vertex the next ADJ chunk must cover
	edges   int // edges accumulated across ADJ chunks
	sawMeta bool
}

// header validates the stream signature (WIRE.md §3).
func (d *decoder) header() error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return formatErr("truncated stream header")
		}
		return err
	}
	if [4]byte(hdr[:4]) != magic {
		return formatErr("bad magic %q (want %q)", hdr[:4], magic[:])
	}
	if hdr[4] != Version {
		return formatErr("unsupported version %d (this decoder speaks version %d)", hdr[4], Version)
	}
	return nil
}

// meta applies the graph dimensions chunk (WIRE.md §5.1).
func (d *decoder) meta(msg *Message, body *byteReader) error {
	if d.sawMeta {
		return formatErr("second META chunk")
	}
	d.sawMeta = true
	n64, err := body.uvarint()
	if err != nil {
		return err
	}
	m64, err := body.uvarint()
	if err != nil {
		return err
	}
	if body.rest() != 0 {
		return formatErr("META chunk carries %d stray bytes", body.rest())
	}
	if n64 > uint64(d.lim.MaxNodes) {
		return formatErr("n=%d exceeds the decoder's %d-node limit", n64, d.lim.MaxNodes)
	}
	n := int(n64)
	// A simple graph on n vertices has at most n(n-1)/2 edges; reject
	// impossible claims before they size any allocation.
	if maxM := uint64(n) * uint64(max(n-1, 0)) / 2; m64 > maxM {
		return formatErr("m=%d exceeds the simple-graph maximum %d for n=%d", m64, maxM, n)
	}
	msg.HasGraph = true
	msg.N = n
	msg.M = int(m64)
	msg.Adj = make([][]int, n)
	return nil
}

// adj applies one adjacency range chunk (WIRE.md §5.2, §6). Ranges must
// tile 0..n-1 contiguously in order, every delta is ≥ 1, and endpoints
// stay in range — so each chunk is fully validated the moment it is read.
func (d *decoder) adj(msg *Message, body *byteReader) error {
	if !d.sawMeta {
		return formatErr("ADJ chunk before META")
	}
	first, err := body.uvarint()
	if err != nil {
		return err
	}
	count, err := body.uvarint()
	if err != nil {
		return err
	}
	if first != uint64(d.next) {
		return formatErr("ADJ range starts at vertex %d, want %d (ranges must tile in order)", first, d.next)
	}
	if count == 0 {
		return formatErr("empty ADJ range")
	}
	if first+count > uint64(msg.N) {
		return formatErr("ADJ range [%d,%d) exceeds n=%d", first, first+count, msg.N)
	}
	for u := int(first); u < int(first+count); u++ {
		deg64, err := body.uvarint()
		if err != nil {
			return err
		}
		// Each forward neighbor costs at least one payload byte, so a
		// degree claim beyond the remaining bytes is rejected before any
		// allocation proportional to it.
		if deg64 > uint64(body.rest()) {
			return formatErr("vertex %d claims %d forward neighbors with %d bytes left in chunk", u, deg64, body.rest())
		}
		prev := u
		for i := 0; i < int(deg64); i++ {
			delta, err := body.uvarint()
			if err != nil {
				return err
			}
			if delta == 0 {
				return formatErr("zero delta in adjacency of vertex %d (deltas are ≥ 1)", u)
			}
			v64 := uint64(prev) + delta
			if v64 >= uint64(msg.N) {
				return formatErr("edge (%d,%d) out of range [0,%d)", u, v64, msg.N)
			}
			v := int(v64)
			// Rebuild the symmetric adjacency. Vertices are processed in
			// ascending order and deltas ascend within a block, so both
			// append targets stay sorted without a final sort pass.
			msg.Adj[u] = append(msg.Adj[u], v)
			msg.Adj[v] = append(msg.Adj[v], u)
			prev = v
		}
		d.edges += int(deg64)
		if d.edges > msg.M {
			return formatErr("ADJ chunks carry more than the declared m=%d edges", msg.M)
		}
	}
	if body.rest() != 0 {
		return formatErr("ADJ chunk carries %d stray bytes after its %d vertex blocks", body.rest(), count)
	}
	d.next = int(first + count)
	return nil
}

// finish runs the whole-stream checks END triggers (WIRE.md §7): the
// graph section, if present, must have covered every vertex and carried
// exactly the declared edge count, and nothing may follow END.
func (d *decoder) finish(msg *Message) (*Message, error) {
	if msg.HasGraph {
		if d.next != msg.N {
			return nil, formatErr("ADJ chunks cover vertices [0,%d), want [0,%d)", d.next, msg.N)
		}
		if d.edges != msg.M {
			return nil, formatErr("ADJ chunks carry %d edges, META declared %d", d.edges, msg.M)
		}
	}
	return msg, nil
}
