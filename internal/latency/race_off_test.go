//go:build !race

package latency

const raceEnabled = false
