//go:build race

package main

// raceEnabled lets timing assertions step aside: the race detector
// slows each layer by a different factor.
const raceEnabled = true
