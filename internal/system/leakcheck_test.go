package system

import (
	"runtime"
	"testing"
	"time"
)

// The goroutine-leak check, shared by this package's internal tests and
// the system_test lifecycle tests (leak_test.go), which reach it as
// system.GoroutineBaseline and system.AssertGoroutinesReturn.

// GoroutineBaseline samples the goroutine count after letting any
// stragglers from earlier tests wind down.
func GoroutineBaseline() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// AssertGoroutinesReturn polls until the goroutine count drops back to
// the baseline (with a little slack for runtime-internal helpers), and
// dumps all stacks if it never does.
func AssertGoroutinesReturn(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after Close: %d, baseline %d\n%s", n, base, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
