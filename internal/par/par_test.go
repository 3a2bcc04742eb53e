package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		var ran [100]atomic.Int32
		if err := Each(n, workers, func(worker, i int) error {
			if worker < 0 || worker >= workers {
				return fmt.Errorf("worker id %d out of range", worker)
			}
			ran[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestEachReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := Each(50, 8, func(_, i int) error {
		switch i {
		case 7:
			return errLow
		case 33:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

func TestEachSequentialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	count := 0
	err := Each(10, 1, func(_, i int) error {
		count++
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom || count != 4 {
		t.Fatalf("err=%v count=%d, want inline stop at task 3", err, count)
	}
}

func TestEachZeroTasks(t *testing.T) {
	if err := Each(0, 4, func(_, _ int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
}

// countTask is a func value held once, as a caller that fans out on a
// hot path holds its task.
var (
	counted   atomic.Int64
	countTask = func(_, _ int) error { counted.Add(1); return nil }
)

// In steady state a parallel call starts no goroutine and allocates
// nothing: its helpers were parked by the call before, before it
// returned, so even a caller that fans out again at once finds them.
func TestEachSteadyStateAllocatesNothing(t *testing.T) {
	Each(8, 3, countTask) // park the helpers
	goroutines := runtime.NumGoroutine()
	counted.Store(0)
	for i := 0; i < 2000; i++ {
		Each(8, 3, countTask)
	}
	if allocs := testing.AllocsPerRun(100, func() { Each(8, 3, countTask) }); allocs != 0 {
		t.Errorf("a parallel Each allocates %v times per call", allocs)
	}
	if got := counted.Load(); got != 2101*8 {
		t.Fatalf("%d tasks ran, want %d", got, 2101*8)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Errorf("%d goroutines after 2,101 calls, %d before: helpers were started, not reused", now, goroutines)
	}
}

// A panicking task on the caller leaves Each only once every helper is
// done: nothing still runs a task when the panic reaches a recover.
func TestEachPanicWaitsForHelpers(t *testing.T) {
	var running, ran atomic.Int32
	callerStarted := make(chan struct{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not propagate")
			}
		}()
		Each(16, 4, func(worker, i int) error {
			running.Add(1)
			defer running.Add(-1)
			if worker == 0 {
				close(callerStarted)
				panic("task failed")
			}
			// Each helper holds a task until the caller has one, so
			// the caller is sure to reach a task of its own.
			<-callerStarted
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		})
	}()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d tasks still running after Each panicked", n)
	}
	if n := ran.Load(); n != 15 {
		t.Fatalf("helpers ran %d tasks, want the 15 the caller did not", n)
	}
}

// Concurrent and nested calls share the parked helpers; every task of
// every call runs exactly once and each call sees only its own errors.
func TestEachConcurrentAndNested(t *testing.T) {
	const callers, outer, inner = 6, 20, 10
	var ran [callers][outer][inner]atomic.Int32
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			err := Each(outer, 3, func(_, i int) error {
				return Each(inner, 2, func(_, j int) error {
					ran[c][i][j].Add(1)
					if j == inner-1 {
						return fmt.Errorf("caller %d task %d", c, i)
					}
					return nil
				})
			})
			if want := fmt.Sprintf("caller %d task 0", c); err == nil || err.Error() != want {
				errs <- fmt.Errorf("caller %d got error %v, want %s", c, err, want)
				return
			}
			errs <- nil
		}()
	}
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for c := range ran {
		for i := range ran[c] {
			for j := range ran[c][i] {
				if n := ran[c][i][j].Load(); n != 1 {
					t.Fatalf("caller %d task %d.%d ran %d times", c, i, j, n)
				}
			}
		}
	}
}
