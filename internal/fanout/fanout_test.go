package fanout

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunDeliversEveryIndexOnceInOrder: for every size and worker count
// each index reaches done exactly once, in increasing order, carrying
// its own job's value, so the delivered sequence is the same at every
// worker count.
func TestRunDeliversEveryIndexOnceInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		var want []string
		for _, workers := range []int{0, 1, 2, n + 3} {
			var got []string
			err := Run(n, workers, func(i int) (string, error) {
				if i%2 == 1 {
					time.Sleep(time.Millisecond) // finish out of order
				}
				return fmt.Sprintf("job-%d", i), nil
			}, func(i int, v string) error {
				if i != len(got) {
					t.Errorf("n=%d workers=%d: done(%d) after %d deliveries", n, workers, i, len(got))
				}
				got = append(got, v)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: %d deliveries", n, workers, len(got))
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: delivered %v, want %v", n, workers, got, want)
			}
		}
	}
}

// TestRunJobErrorStopsDispatch: a failing job stops dispatch, so not all
// jobs start, and its error is returned after the lower indices are
// delivered.
func TestRunJobErrorStopsDispatch(t *testing.T) {
	const n = 50
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		var delivered []int
		err := Run(n, workers, func(i int) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			if i > 3 {
				time.Sleep(time.Millisecond)
			}
			return i, nil
		}, func(i int, v int) error {
			delivered = append(delivered, v)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if !reflect.DeepEqual(delivered, []int{0, 1, 2}) {
			t.Errorf("workers=%d: delivered %v, want the indices below the failure", workers, delivered)
		}
		if s := started.Load(); s >= n {
			t.Errorf("workers=%d: all %d jobs started after the failure", workers, s)
		}
		if workers == 1 && started.Load() != 4 {
			t.Errorf("one worker started %d jobs, want exactly 4", started.Load())
		}
	}
}

// TestRunLowestFailingIndexWins: when several jobs fail, the error
// returned is the lowest-index one, whatever order they fail in.
func TestRunLowestFailingIndexWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := Run(8, workers, func(i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(5 * time.Millisecond) // fails last
				return 0, errors.New("job 2")
			case 5:
				return 0, errors.New("job 5")
			}
			return i, nil
		}, func(int, int) error { return nil })
		if err == nil || err.Error() != "job 2" {
			t.Errorf("workers=%d: err = %v, want job 2", workers, err)
		}
	}
}

// TestRunDoneErrorAborts: an error from done stops dispatch the same
// way, and done is not called again.
func TestRunDoneErrorAborts(t *testing.T) {
	const n = 50
	full := errors.New("store full")
	for _, workers := range []int{1, 4} {
		var started atomic.Int64
		calls := 0
		err := Run(n, workers, func(i int) (int, error) {
			started.Add(1)
			time.Sleep(100 * time.Microsecond)
			return i, nil
		}, func(i int, v int) error {
			calls++
			if i == 2 {
				return full
			}
			return nil
		})
		if !errors.Is(err, full) {
			t.Fatalf("workers=%d: err = %v, want store full", workers, err)
		}
		if calls != 3 {
			t.Errorf("workers=%d: done called %d times, want 3", workers, calls)
		}
		if s := started.Load(); s >= n {
			t.Errorf("workers=%d: all %d jobs started after done failed", workers, s)
		}
	}
}

// TestRunLeavesNoGoroutines: after Run returns, with or without an
// error, every worker goroutine has exited.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, fail := range []bool{false, true} {
		err := Run(20, 4, func(i int) (int, error) {
			if fail && i == 5 {
				return 0, errors.New("fail")
			}
			return i, nil
		}, func(int, int) error { return nil })
		if (err != nil) != fail {
			t.Fatalf("fail=%v: err = %v", fail, err)
		}
	}
	// A worker that closed the results channel may still be unwinding
	// its deferred call when Run returns; give it a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}
