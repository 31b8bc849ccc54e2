//go:build !race

package shard

const raceDetector = false
