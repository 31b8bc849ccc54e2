//go:build race

package shard

// raceDetector reports whether the test binary was built with -race. Under
// the race detector sync.Pool drops a share of what it is given, so an
// allocation pin on a path that recycles scratch through a pool cannot hold.
const raceDetector = true
