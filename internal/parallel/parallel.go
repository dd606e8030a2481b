// Package parallel is the repository's small worker-pool layer: it fans a
// fixed index space out over a bounded number of goroutines and collects
// nothing — callers write results into their own slot of a pre-sized slice,
// which keeps every parallel path bit-identical to its serial counterpart
// (the reduction over slots happens in index order afterwards).
//
// Its callers are the simulator (internal/sim) and the experiment harness
// (internal/experiments), which shard independent TE intervals and
// scenario replays, and core.CalibrateScale, which solves each bracket
// step's sample sessions side by side.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(i) exactly once for every i in [0,n), fanned out over
// runtime.GOMAXPROCS(0) goroutines. With one worker it runs inline in index
// order. fn must confine its writes to per-index state; results written by
// slot are deterministic regardless of scheduling.
func ForEach(n int, fn func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// FirstError returns the lowest-index non-nil error, mirroring what a
// serial loop would have returned first (nil if none).
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
