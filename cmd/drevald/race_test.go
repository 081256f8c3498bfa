//go:build race

package main

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops a random quarter of the objects put back.
const raceEnabled = true
