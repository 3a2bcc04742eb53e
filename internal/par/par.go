// Package par provides the small bounded worker pool that the strategy
// search, the data plane and the experiment sweeps fan out on. The module
// is dependency-free by design, so this stands in for errgroup-style
// helpers: a fixed number of workers drain an indexed task list, and the
// lowest-index error (a deterministic choice) is reported.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: values below 1 request the
// automatic setting, GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Each runs task(worker, i) for every i in [0, n) on at most `workers`
// goroutines; worker identifies the goroutine (0 <= worker < workers),
// so callers can hand each worker exclusive scratch state (for example
// a per-worker timeline engine). With workers <= 1 the tasks run inline
// on the calling goroutine in index order, stopping at the first error.
// In parallel mode every task runs regardless of other tasks' errors,
// and the error with the lowest index is returned, which keeps the
// reported failure independent of goroutine scheduling.
//
// The caller is worker 0; workers 1.. are helper goroutines that stay
// parked between calls, so a call in steady state starts no goroutine
// and allocates nothing: a caller that passes a func value it already
// holds (a method value bound once, say) fans out for free. A task that
// panics, on the caller or on a helper, panics out of Each once every
// worker is done.
func Each(n, workers int, task func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	f := takeFan(task, n, workers-1)
	for w := 1; w < workers; w++ {
		wake(f, w)
	}
	// A woken helper waits in this P's next-to-run slot, which an idle P
	// steals only after backing off; had the caller started draining,
	// the first helper would join tens of microseconds late. Yielding
	// runs that helper here at once and lets the idle P pick the caller.
	runtime.Gosched()
	f.lead()
	err, panicked, p := f.err, f.panicked, f.panicVal
	releaseFan(f)
	if panicked {
		panic(p)
	}
	return err
}

// fan is one parallel Each call's shared state. Fans are recycled, so
// a call allocates none once the free list holds one.
type fan struct {
	task func(worker, i int) error
	n    int
	next atomic.Int64
	wg   sync.WaitGroup // the helpers still draining

	// Errors are rare on the probe hot path; only the lowest-index one
	// is kept, and only the first helper panic.
	mu       sync.Mutex
	errI     int
	err      error
	panicked bool
	panicVal any
}

// drain runs tasks until the list is exhausted.
func (f *fan) drain(worker int) {
	for {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		if err := f.task(worker, i); err != nil {
			f.mu.Lock()
			if f.err == nil || i < f.errI {
				f.errI, f.err = i, err
			}
			f.mu.Unlock()
		}
	}
}

// lead drains as worker 0 and then waits for the helpers, even when a
// task panics: no helper still runs a task once the panic leaves Each.
func (f *fan) lead() {
	defer f.wg.Wait()
	f.drain(0)
}

// help drains as a helper. A panicking task stops this helper only: the
// panic is kept for the caller to raise after the join, and the other
// workers drain the rest.
func (f *fan) help(worker int) {
	defer func() {
		if p := recover(); p != nil {
			f.mu.Lock()
			if !f.panicked {
				f.panicked, f.panicVal = true, p
			}
			f.mu.Unlock()
		}
	}()
	f.drain(worker)
}

// helper is a parked goroutine's mailbox. It holds at most one
// assignment: a helper is handed work only by whoever takes it off the
// parked list, and it puts itself back only after draining its last.
type helper chan assignment

type assignment struct {
	f      *fan
	worker int
}

// idle holds the parked helpers and the recycled fans.
var idle struct {
	sync.Mutex
	helpers []helper
	fans    []*fan
}

func takeFan(task func(worker, i int) error, n, helpers int) *fan {
	idle.Lock()
	var f *fan
	if k := len(idle.fans); k > 0 {
		f = idle.fans[k-1]
		idle.fans = idle.fans[:k-1]
	}
	idle.Unlock()
	if f == nil {
		f = new(fan)
	}
	f.task, f.n = task, n
	f.next.Store(0)
	f.errI, f.err = 0, nil
	f.panicked = false
	f.wg.Add(helpers)
	return f
}

func releaseFan(f *fan) {
	f.task, f.err, f.panicVal = nil, nil, nil // hold no caller state while parked
	idle.Lock()
	idle.fans = append(idle.fans, f)
	idle.Unlock()
}

// wake hands worker slot `worker` of f to a parked helper, starting a new
// one when none is parked.
func wake(f *fan, worker int) {
	idle.Lock()
	var h helper
	if k := len(idle.helpers); k > 0 {
		h = idle.helpers[k-1]
		idle.helpers = idle.helpers[:k-1]
	}
	idle.Unlock()
	if h == nil {
		h = make(helper, 1)
		go h.run()
	}
	h <- assignment{f, worker}
}

// run serves assignments until the helper finds GOMAXPROCS helpers
// parked already; then it exits. A helper parks before it signals its
// fan done, so a caller's next Each finds it on the list instead of
// starting another. A burst of concurrent fan-outs starts as many
// helpers as it needs, and the process keeps at most GOMAXPROCS of them
// afterwards, each a parked goroutine of a few kilobytes of stack.
func (h helper) run() {
	for a := range h {
		a.f.help(a.worker)
		idle.Lock()
		park := len(idle.helpers) < runtime.GOMAXPROCS(0)
		if park {
			idle.helpers = append(idle.helpers, h)
		}
		idle.Unlock()
		a.f.wg.Done()
		if !park {
			return
		}
	}
}
