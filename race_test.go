//go:build race

package graphrealize_test

func init() { raceEnabled = true }
