//go:build !race

package exec

const raceEnabled = false
