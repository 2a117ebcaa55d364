//go:build sweep

package graphrealize

import "testing"

// TestSmallNSweep checks every non-increasing input up to n = 8
// (checkSmallN). It builds only with -tags sweep:
//
//	go test -tags sweep -run '^TestSmallNSweep$' -v .
func TestSmallNSweep(t *testing.T) { checkSmallN(t, 8, 0) }
