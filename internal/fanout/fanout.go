// Package fanout runs independent jobs on a bounded set of worker
// goroutines and hands their results back in index order. It is the
// one fan-out primitive of the simulator: whole-machine runs (one job
// per host port) and the experiment runner's warm-up both go through
// Run.
//
// Run behaves like the sequential loop
//
//	for i := 0; i < n; i++ {
//		v, err := job(i)
//		if err != nil {
//			return err
//		}
//		if err := done(i, v); err != nil {
//			return err
//		}
//	}
//
// except that jobs execute concurrently. done sees the same indices in
// the same order, and Run returns the same error, at every worker count
// and for every completion order. So a caller whose jobs are
// deterministic gets output that is independent of the worker count.
package fanout

import (
	"runtime"
	"sync/atomic"
)

// Run calls job(i) for every i in [0, n) on up to workers goroutines
// and passes each result to done, on the calling goroutine, in
// increasing index order. workers <= 0 means GOMAXPROCS; the count is
// clamped to n.
//
// An error from a job or from done stops dispatch: workers claim no
// further indices, and done is not called for the failed index or any
// later one. Every index below a failed one was claimed earlier, so it
// still runs, and Run returns the lowest-index error once every claimed
// job has finished. No goroutine outlives Run.
func Run[T any](n, workers int, job func(i int) (T, error), done func(i int, v T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 0 {
		return nil
	}

	type result struct {
		i   int
		v   T
		err error
	}
	var (
		next atomic.Int64 // next index to dispatch
		stop atomic.Bool  // set on the first error: dispatch no more
		live atomic.Int64 // running workers; the last one out closes results
	)
	// One slot per worker: a worker can hand off a finished result and
	// start its next job while the caller is still inside done.
	results := make(chan result, workers)
	live.Store(int64(workers))
	for w := 0; w < workers; w++ {
		go func() {
			defer func() {
				if live.Add(-1) == 0 {
					close(results)
				}
			}()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := job(i)
				if err != nil {
					stop.Store(true)
				}
				results <- result{i, v, err}
			}
		}()
	}

	// Deliver in index order. Every index below a dispatched one was
	// dispatched earlier, so waiting for the gap to fill never stalls.
	var err error
	end := n // indices at or above end are never delivered
	pending := make(map[int]result)
	want := 0
	for r := range results {
		if r.i >= end {
			continue
		}
		pending[r.i] = r
		for want < end {
			r, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if r.err == nil {
				r.err = done(want, r.v)
			}
			if r.err != nil {
				err, end = r.err, want
				stop.Store(true)
				break
			}
			want++
		}
	}
	return err
}
