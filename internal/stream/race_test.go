//go:build race

package stream

// raceEnabled reports a -race build, where sync.Pool drops pooled state
// at random and allocation counts stop being deterministic.
const raceEnabled = true
