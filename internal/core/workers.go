package core

import "runtime"

// ClampWorkers normalises a caller-supplied worker count against the
// scheduler's actual parallelism: negative means "as many as the
// runtime will run" and any request above runtime.GOMAXPROCS(0) is
// clamped down to it — goroutines beyond that only add scheduling and
// coordination overhead, they can never run simultaneously. Zero passes
// through unchanged so call sites keep their own zero semantics
// ("default pool" for batch and campaign drivers).
//
// Every concurrency knob in the repository funnels through here —
// engine batch pools, the campaign runtime and the BSP simulator — so
// an untrusted or misconfigured worker count degrades to the hardware's
// parallelism instead of a thousand idle goroutines.
func ClampWorkers(n int) int {
	max := runtime.GOMAXPROCS(0)
	if n < 0 || n > max {
		return max
	}
	return n
}
