//go:build race

package routing

// raceEnabled gates the largest oracle family: the map-walking reference
// at 2048 routers runs for minutes under the race detector.
const raceEnabled = true
