package revalidate

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// batchWorkers resolves a requested worker count against a batch size:
// workers <= 0 means one worker per logical CPU, and the pool never
// exceeds the number of items.
func batchWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runWorkers runs body on a pool of workers. Each body draws item indexes
// in [0, n) from one shared atomic counter until the batch is drained, so
// uneven per-item cost balances across the pool without any queue or lock.
// With one worker, body runs on the calling goroutine; an empty batch runs
// nothing at all.
func runWorkers(n, workers int, body func(claim func() (int, bool))) {
	if n == 0 {
		return
	}
	workers = batchWorkers(n, workers)
	var next atomic.Int64
	claim := func() (int, bool) {
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	if workers == 1 {
		body(claim)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			body(claim)
		}()
	}
	wg.Wait()
}
