//go:build !race

package traceio

// raceEnabled reports whether the tests run under the race detector,
// which slows a long single-goroutine loop without checking more.
const raceEnabled = false
