package sim_test

import (
	"testing"

	"tell/internal/testutil"
)

// TestMain fails the package on leaked goroutines: a kernel that was shut
// down must leave none behind, blocked or parked.
func TestMain(m *testing.M) { testutil.Main(m) }
