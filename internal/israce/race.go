//go:build race

// Package israce reports whether the race detector is compiled in. The
// allocation-pin tests skip under it: the detector allocates on its own
// and makes sync.Pool drop entries at random, so exact counts do not hold.
package israce

// Enabled is true when the binary was built with -race.
const Enabled = true
