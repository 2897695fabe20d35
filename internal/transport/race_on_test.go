//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation and heap gates skip under it.
const raceEnabled = true
