//go:build !race

package figures

const raceDetector = false
