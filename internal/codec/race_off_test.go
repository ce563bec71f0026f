//go:build !race

package codec

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
