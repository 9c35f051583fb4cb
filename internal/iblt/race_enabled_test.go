//go:build race

package iblt

// raceEnabled lets tests skip instances that are too large for the race
// detector's ~10× memory-access slowdown.
const raceEnabled = true
