package sortnet

import (
	"fmt"
	"reflect"
	"testing"

	"graphrealize/internal/ncctest"
)

// step_test.go checks the resumable-step compilation of the sorting
// protocols — the largest state machines in the repository. For every method
// Sort must rank correctly (runSort validates it) and reproduce the
// trace the blocking Sort produced on the goroutine-barrier driver, recorded
// as digests before the blocking API was retired (outbox determinism: same
// messages, same rounds, same outputs).

// sortDigests records the blocking Sort's trace digest per method and n.
var sortDigests = map[string]string{
	"method=oracle/n=1":   "334fc83581ce8cf4",
	"method=oracle/n=2":   "0509bb026f588319",
	"method=oracle/n=3":   "9ebc80023123a983",
	"method=oracle/n=10":  "11c7a0113901ad7c",
	"method=oracle/n=33":  "ed8fd0048fe8015f",
	"method=oddeven/n=1":  "9ae8254184501a73",
	"method=oddeven/n=2":  "908d0084a6aabb55",
	"method=oddeven/n=3":  "8511fb88f598612a",
	"method=oddeven/n=10": "73cd99c728d2d375",
	"method=oddeven/n=33": "895d1c9d8a6230c3",
	"method=merge/n=1":    "2afbf36ac2742cb3",
	"method=merge/n=2":    "03f42d0a76f9c2f3",
	"method=merge/n=3":    "f45591cf2b0a4621",
	"method=merge/n=10":   "b88adeaa653f5607",
	"method=merge/n=33":   "3c0ecb0a6c25af0f",
}

func TestSortStepMatchesBlocking(t *testing.T) {
	for _, method := range []Method{Oracle, OddEven, Merge} {
		for _, n := range []int{1, 2, 3, 10, 33} {
			seed := int64(n)*13 + 1
			flat := runSort(t, n, seed, method)
			label := fmt.Sprintf("method=%v/n=%d", method, n)
			ncctest.Expect(t, label, flat, nil, sortDigests[label])
			// Outbox determinism within the driver: a second identical run
			// reproduces the trace exactly.
			again := runSort(t, n, seed, method)
			if !reflect.DeepEqual(flat, again) {
				t.Fatalf("method=%v n=%d: flat run is not reproducible", method, n)
			}
		}
	}
}
