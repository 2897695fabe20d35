//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation-count gates skip under it.
const raceEnabled = true
