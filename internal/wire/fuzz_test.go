package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// FuzzWireDecode pins the WIRE.md §7 robustness guarantee: Decode never
// panics on arbitrary input, every rejection wraps ErrFormat, and any
// input it does accept is a canonical stream — re-encoding the decoded
// graph succeeds and round-trips.
func FuzzWireDecode(f *testing.F) {
	golden, err := hex.DecodeString(goldenHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-1])      // truncated END
	f.Add(golden[:7])                  // truncated frame header
	f.Add([]byte{})                    // empty
	f.Add([]byte{'G', 'R', 'W', 'F'})  // header cut short
	f.Add([]byte("GRWF\x02"))          // future version
	mut := append([]byte{}, golden...) // flipped payload byte
	mut[14] ^= 0x10
	f.Add(mut)
	metaOnly, err := hex.DecodeString("475257460116000000") // hand-cut frame
	if err != nil {
		f.Fatal(err)
	}
	f.Add(metaOnly)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Small limits keep a hostile META chunk from slowing the fuzzer
		// down with large (but legal) allocations.
		msg, err := decodeLimits(bytes.NewReader(data), limits{MaxNodes: 1 << 12, MaxChunkBytes: 1 << 16})
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Decode error %v does not wrap ErrFormat", err)
			}
			return
		}
		if !msg.HasGraph {
			return
		}
		reenc, err := EncodeGraph(msg.N, msg.Adj)
		if err != nil {
			t.Fatalf("accepted stream re-encodes with error: %v", err)
		}
		again, err := Decode(bytes.NewReader(reenc))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if again.N != msg.N || again.M != msg.M || !adjEqual(again.Adj, msg.Adj) {
			t.Fatal("decode→encode→decode changed the graph")
		}
	})
}
