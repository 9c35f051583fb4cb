//go:build !race

package iblt

const raceEnabled = false
