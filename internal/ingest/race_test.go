//go:build race

package ingest

// The race detector shadows every heap allocation and keeps extra
// state per goroutine, so live-heap measurements taken under it do not
// describe the production footprint.
const raceDetectorEnabled = true
