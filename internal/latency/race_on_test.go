//go:build race

package latency

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so allocation counts through the scratch pool mean
// nothing.
const raceEnabled = true
