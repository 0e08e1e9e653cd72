//go:build race

package figures

// raceDetector reports a -race build, whose sync.Pool drops a quarter of
// the values put back.
const raceDetector = true
