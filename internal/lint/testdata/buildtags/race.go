//go:build race

package buildtags

// Race reports whether the race detector is on.
const Race = true
