package system

import (
	"os"
	"testing"
)

// The package fails when a test passed by waiting out a commit timeout or
// a replicate deadline it did not count (system.go).
func TestMain(m *testing.M) { os.Exit(CensusMain(m)) }
