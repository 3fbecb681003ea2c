package fabric

import (
	"os"
	"testing"

	"dichotomy/internal/system"
)

// The package fails when a test passed by waiting out a commit timeout or
// a replicate deadline it did not count (system.CensusMain).
func TestMain(m *testing.M) { os.Exit(system.CensusMain(m)) }
