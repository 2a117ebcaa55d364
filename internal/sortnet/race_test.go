//go:build race

package sortnet

func init() { raceEnabled = true }
