//go:build race

package bench

// raceEnabled: the race detector slows the experiment grids several
// fold, past what one test should take.
const raceEnabled = true
