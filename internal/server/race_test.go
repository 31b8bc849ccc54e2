//go:build race

package server

// raceDetector reports whether the test binary was built with -race. Under
// the race detector sync.Pool drops a share of what it is given, so the
// allocation pins on the pooled request path get a little slack there.
const raceDetector = true
