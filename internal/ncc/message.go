package ncc

import (
	"fmt"
	"math"
)

// MaxIDsPerMessage bounds the number of node IDs a single message may carry.
// Together with the four scalar words this keeps every message at a constant
// number of Θ(log n)-bit words, as the model requires.
const MaxIDsPerMessage = 4

// Message is a single O(log n)-bit datagram. Protocols are free to assign
// meaning to Kind and the scalar payload words A..D. IDs attached with
// WithIDs are "learned" by the receiver (NCC0 knowledge transfer); scalar
// words are not interpreted as IDs and teach the receiver nothing.
//
// A Message is a fixed-size value with no pointers: the carried IDs live
// inline, so building and delivering one allocates nothing and inbox
// buffers need no garbage-collector scan.
//
// Src is stamped by the simulator on delivery; senders need not set it.
// Receiving a message always teaches the receiver Src (a message carries its
// return address, like an IP packet).
type Message struct {
	Src    ID    // stamped by the simulator; the sender's ID
	Kind   uint8 // protocol-defined message type
	nIDs   uint8 // IDs attached by WithIDs; above MaxIDsPerMessage Send rejects m
	dstIdx int32 // destination's Gk index, stamped by Send
	A      int64 // scalar payload words (protocol-defined)
	B      int64
	C      int64
	D      int64
	ids    [MaxIDsPerMessage]ID
}

// validate checks the static size constraints of the model.
func (m *Message) validate() error {
	if int(m.nIDs) > MaxIDsPerMessage {
		return fmt.Errorf("ncc: message carries %d IDs, max is %d", m.nIDs, MaxIDsPerMessage)
	}
	return nil
}

// WithIDs returns a copy of m carrying the given IDs in place of any it
// carried before. It is the only way to attach IDs; Send rejects a message
// given more than MaxIDsPerMessage of them.
func (m Message) WithIDs(ids ...ID) Message {
	m.nIDs = uint8(min(len(ids), math.MaxUint8))
	m.ids = [MaxIDsPerMessage]ID{}
	copy(m.ids[:], ids)
	return m
}

// IDs returns the node IDs m carries, in WithIDs order; it is empty when m
// carries none. The slice aliases m itself: for a delivered message it is
// valid only as long as the inbox holding it (see Cont), so keep an ID, not
// the slice, past the step that received it.
func (m *Message) IDs() []ID {
	return m.ids[:min(int(m.nIDs), MaxIDsPerMessage)]
}
