//go:build race

package exec

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so bytes allocated through the similarity join's pools
// mean nothing.
const raceEnabled = true
