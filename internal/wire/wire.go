// Package wire implements the graphwire binary encoding of simple
// undirected graphs — the compact, streamable alternative to JSON edge
// lists used by the HTTP service (content type application/x-graphwire)
// and by the durable job store's at-rest results.
//
// The format is specified normatively in WIRE.md at the repository root;
// this package is an implementation of that document, and the codec tests
// cite it section by section. In one paragraph: a stream is a 5-byte
// header (magic "GRWF" + version) followed by length-prefixed,
// CRC32-framed chunks — an optional JSON metadata chunk, a graph section
// (META chunk with n and m, then ADJ chunks carrying varint-delta-encoded
// sorted forward adjacency), and a mandatory END chunk. Every chunk is
// independently validated, so a reader can stream and verify incrementally
// and a truncated or corrupted stream is always detected.
//
// The package depends only on the standard library and operates on the
// raw (n, adjacency) representation, so every layer above — the facade,
// the serving stack, the job store, the load generator — can use it
// without import cycles.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MediaType is the HTTP content type of a graphwire stream (WIRE.md §1).
const MediaType = "application/x-graphwire"

// Version is the wire-format version this package reads and writes
// (WIRE.md §3, §8). Decoders reject streams with any other version.
const Version = 1

// magic is the 4-byte stream signature "GRWF" (WIRE.md §3).
var magic = [4]byte{'G', 'R', 'W', 'F'}

// headerSize is the byte length of the stream header: magic + version.
const headerSize = len(magic) + 1

// Chunk type codes (WIRE.md §5).
const (
	chunkMeta  = 0x01 // graph dimensions: varint n, varint m
	chunkAdj   = 0x02 // adjacency range: varint first, varint count, vertex blocks
	chunkEnd   = 0x03 // end of stream, empty body
	chunkJMeta = 0x04 // application JSON metadata document
)

// frameOverhead is the per-chunk framing cost: u32 length + u32 CRC
// (WIRE.md §4).
const frameOverhead = 8

// defaultChunkTarget is the encoder's target ADJ chunk payload size
// (WIRE.md §4 recommends staying well under the decoder limit so readers
// validate in bounded memory). A vertex block never splits across chunks,
// so actual payloads may exceed the target by one block.
const defaultChunkTarget = 32 << 10

// defaultMaxChunkBytes is the decoder's default cap on a single chunk
// payload (WIRE.md §7): anything larger is rejected before allocation.
const defaultMaxChunkBytes = 1 << 20

// defaultMaxNodes is the decoder's default cap on the vertex count
// (WIRE.md §7), bounding the memory a hostile META chunk can demand.
const defaultMaxNodes = 1 << 24

// ErrFormat is the base class of every malformed-stream error the decoder
// returns; test with errors.Is. Truncation, checksum failures, grammar
// violations, and limit breaches all wrap it — a decoder never panics on
// arbitrary input (WIRE.md §7).
var ErrFormat = errors.New("wire: malformed graphwire stream")

// formatErr wraps ErrFormat with position-independent detail.
func formatErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

// appendFrame appends one framed chunk — length, CRC-32 (IEEE) over the
// payload, payload — to dst (WIRE.md §4). The payload includes the leading
// chunk type byte, so the CRC covers it.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one framed chunk and verifies its checksum. maxPayload
// bounds the allocation a corrupt or hostile length prefix can demand.
func readFrame(r io.Reader, maxPayload int) (payload []byte, err error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, formatErr("truncated chunk frame")
		}
		return nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(length) > int64(maxPayload) {
		return nil, formatErr("chunk payload of %d bytes exceeds the %d-byte limit", length, maxPayload)
	}
	if length == 0 {
		return nil, formatErr("empty chunk payload (every chunk starts with a type byte)")
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, formatErr("truncated chunk payload (want %d bytes)", length)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, formatErr("chunk checksum mismatch (header %08x, payload %08x)", want, got)
	}
	return payload, nil
}

// uvarint appends x in unsigned LEB128 form (WIRE.md §2).
func uvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// byteReader reads varints from a chunk payload without consuming past it.
type byteReader struct {
	buf []byte
	pos int
}

func (b *byteReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(b.buf[b.pos:])
	if n <= 0 {
		return 0, formatErr("truncated or overlong varint in chunk body")
	}
	b.pos += n
	return x, nil
}

func (b *byteReader) rest() int { return len(b.buf) - b.pos }
