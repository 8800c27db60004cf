//go:build race

package lsh

// raceEnabled reports whether the race detector is on: sync.Pool drops a
// share of its items under it, so allocation counts are meaningless there.
const raceEnabled = true
