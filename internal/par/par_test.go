package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
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

// mallocsPerCall is testing.AllocsPerRun at the caller's GOMAXPROCS
// (AllocsPerRun measures at GOMAXPROCS 1, where one helper stays parked).
func mallocsPerCall(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// In steady state a parallel call on no more helpers than stay parked
// (GOMAXPROCS) starts no goroutine and allocates nothing: its helpers
// were parked by the call before, before it returned, so even a caller
// that fans out again at once finds them.
func TestEachSteadyStateAllocatesNothing(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) + 1
	call := func() { Each(8, workers, countTask) }
	call() // park the helpers
	goroutines := runtime.NumGoroutine()
	counted.Store(0)
	for i := 0; i < 2000; i++ {
		call()
	}
	if allocs := mallocsPerCall(100, call); allocs != 0 {
		t.Errorf("a parallel Each allocates %v times per call", allocs)
	}
	if got := counted.Load(); got != 2100*8 {
		t.Fatalf("%d tasks ran, want %d", got, 2100*8)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Errorf("%d goroutines after 2,100 calls, %d before: helpers were started, not reused", now, goroutines)
	}
}

// A panicking task, on the caller or on a helper, leaves Each only once
// every worker is done: nothing still runs a task when the panic reaches
// a recover, and the other workers ran every task the panicker did not.
func TestEachPanicWaitsForHelpers(t *testing.T) {
	for _, onCaller := range []bool{true, false} {
		var running, ran atomic.Int32
		var panicked atomic.Bool
		started := make(chan struct{})
		got := func() (p any) {
			defer func() { p = recover() }()
			Each(16, 4, func(worker, i int) error {
				running.Add(1)
				defer running.Add(-1)
				if (worker == 0) == onCaller && panicked.CompareAndSwap(false, true) {
					close(started)
					panic("task failed")
				}
				// Every other task waits for the panicking one, so
				// the panicker is sure to reach a task of its own.
				<-started
				time.Sleep(time.Millisecond)
				ran.Add(1)
				return nil
			})
			return nil
		}()
		if got != "task failed" {
			t.Fatalf("panic on caller=%v: recovered %v, want the task's panic", onCaller, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("panic on caller=%v: %d tasks still running after Each panicked", onCaller, n)
		}
		if n := ran.Load(); n != 15 {
			t.Fatalf("panic on caller=%v: the other workers ran %d tasks, want the 15 the panicker did not", onCaller, n)
		}
	}
}

// A burst of concurrent wide fan-outs starts the helpers it needs, and
// afterwards at most GOMAXPROCS of them stay parked.
func TestEachParksAtMostGOMAXPROCSHelpers(t *testing.T) {
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Each(64, 64, func(_, _ int) error {
				time.Sleep(100 * time.Microsecond)
				return nil
			})
		}()
	}
	wg.Wait()
	idle.Lock()
	parked := len(idle.helpers)
	idle.Unlock()
	if procs := runtime.GOMAXPROCS(0); parked > procs {
		t.Fatalf("%d helpers parked after the burst, want at most GOMAXPROCS = %d", parked, procs)
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
