package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30*time.Millisecond {
		t.Fatalf("end = %v, want 30ms", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineBreaksTiesBySubmissionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.Schedule(time.Millisecond, func() {
		fired = append(fired, e.Now())
		e.After(2*time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 3*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5*time.Millisecond, func() {})
	})
	e.Run()
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1*time.Millisecond, func() { ran++ })
	e.Schedule(5*time.Millisecond, func() { ran++ })
	e.RunUntil(2 * time.Millisecond)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d after Run, want 2", ran)
	}
}

func TestFIFOSerializesJobs(t *testing.T) {
	f := NewFIFO(nil, "gpu")
	a := f.Reserve("a", 0, 10*time.Millisecond)
	b := f.Reserve("b", 5*time.Millisecond, 10*time.Millisecond)
	if a.Start != 0 || a.End != 10*time.Millisecond {
		t.Fatalf("a = %+v", a)
	}
	if b.Start != 10*time.Millisecond {
		t.Fatalf("b started at %v, want 10ms (queued behind a)", b.Start)
	}
	if b.Queued() != 5*time.Millisecond {
		t.Fatalf("b queued %v, want 5ms", b.Queued())
	}
}

func TestFIFOSubmitFiresCallback(t *testing.T) {
	e := NewEngine()
	f := NewFIFO(e, "nic")
	var doneAt time.Duration
	e.Schedule(0, func() {
		f.Submit("x", e.Now(), 7*time.Millisecond, func(sp Span) { doneAt = e.Now() })
	})
	e.Run()
	if doneAt != 7*time.Millisecond {
		t.Fatalf("doneAt = %v, want 7ms", doneAt)
	}
}

func TestResetRestoresIdle(t *testing.T) {
	f := NewFIFO(nil, "x")
	f.Reserve("a", 0, time.Second)
	f.Reset()
	if f.Free() != 0 || f.Busy() != 0 || len(f.Spans()) != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: FIFO spans never overlap and respect both ready times and
// submission order.
func TestFIFONoOverlapProperty(t *testing.T) {
	prop := func(readies []uint16, durs []uint16) bool {
		n := len(readies)
		if len(durs) < n {
			n = len(durs)
		}
		f := NewFIFO(nil, "p")
		ready := time.Duration(0)
		for i := 0; i < n; i++ {
			ready += time.Duration(readies[i]%100) * time.Microsecond
			f.Reserve("j", ready, time.Duration(durs[i]%1000)*time.Microsecond)
		}
		spans := f.Spans()
		for i := range spans {
			if spans[i].Start < spans[i].Ready {
				return false
			}
			if i > 0 && spans[i].Start < spans[i-1].End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time equals the sum of requested durations.
func TestBusyAccountingProperty(t *testing.T) {
	prop := func(durs []uint16) bool {
		f := NewFIFO(nil, "p")
		var want time.Duration
		for _, d := range durs {
			dd := time.Duration(d%5000) * time.Microsecond
			want += dd
			f.Reserve("j", 0, dd)
		}
		return f.Busy() == want && f.Free() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilWithPendingEventsAtDeadline(t *testing.T) {
	e := NewEngine()
	var ran []time.Duration
	for _, at := range []time.Duration{1, 4, 9, 16} {
		at := at * time.Millisecond
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	// An event exactly on the deadline runs; later ones stay queued.
	if end := e.RunUntil(4 * time.Millisecond); end != 4*time.Millisecond {
		t.Fatalf("end = %v, want 4ms", end)
	}
	if len(ran) != 2 || e.Pending() != 2 {
		t.Fatalf("ran %v with %d pending, want 2 ran / 2 pending", ran, e.Pending())
	}
	// A deadline strictly between events dispatches nothing but still
	// advances the clock, and the queue survives intact.
	if end := e.RunUntil(8 * time.Millisecond); end != 8*time.Millisecond {
		t.Fatalf("idle RunUntil end = %v, want 8ms", end)
	}
	if len(ran) != 2 || e.Pending() != 2 {
		t.Fatalf("idle RunUntil dispatched: ran %v, pending %d", ran, e.Pending())
	}
	// Draining afterwards completes the remaining events in order.
	if end := e.Run(); end != 16*time.Millisecond {
		t.Fatalf("drain end = %v, want 16ms", end)
	}
	if len(ran) != 4 || e.Pending() != 0 {
		t.Fatalf("after drain: ran %v, pending %d", ran, e.Pending())
	}
}

func TestFIFOAccountingUnderContention(t *testing.T) {
	f := NewFIFO(nil, "nic")
	// Three back-to-back submissions all ready at t=0 contend for the
	// resource; service is serialized in submission order.
	a := f.Reserve("a", 0, 4*time.Millisecond)
	b := f.Reserve("b", 0, 6*time.Millisecond)
	c := f.Reserve("c", 0, 2*time.Millisecond)
	if a.Queued() != 0 {
		t.Errorf("a queued %v, want 0", a.Queued())
	}
	if b.Start != 4*time.Millisecond || b.Queued() != 4*time.Millisecond {
		t.Errorf("b = %+v, want start/queued 4ms", b)
	}
	if c.Start != 10*time.Millisecond || c.Queued() != 10*time.Millisecond {
		t.Errorf("c = %+v, want start/queued 10ms", c)
	}
	if f.Busy() != 12*time.Millisecond {
		t.Errorf("Busy = %v, want 12ms (sum of service times)", f.Busy())
	}
	if f.Free() != 12*time.Millisecond {
		t.Errorf("Free = %v, want 12ms (last span end)", f.Free())
	}
	// A job arriving after an idle gap leaves the gap out of Busy.
	d := f.Reserve("d", 20*time.Millisecond, time.Millisecond)
	if d.Queued() != 0 {
		t.Errorf("d queued %v, want 0 after idle gap", d.Queued())
	}
	if f.Busy() != 13*time.Millisecond || f.Free() != 21*time.Millisecond {
		t.Errorf("Busy/Free = %v/%v, want 13ms/21ms", f.Busy(), f.Free())
	}
}

// Spans must hand out a copy: the telemetry layer reads span history
// while engines keep reserving, and historical records must not be
// mutable through the returned slice.
func TestSpansReturnsCopy(t *testing.T) {
	f := NewFIFO(nil, "x")
	f.Reserve("a", 0, time.Millisecond)
	got := f.Spans()
	got[0].Label = "mutated"
	if f.Spans()[0].Label != "a" {
		t.Fatal("FIFO.Spans aliases internal storage")
	}
	// Appending to the returned slice must not interleave with the
	// resource's own growth.
	got = append(got, Span{Label: "rogue"})
	f.Reserve("b", 0, time.Millisecond)
	spans := f.Spans()
	if len(spans) != 2 || spans[1].Label != "b" {
		t.Fatalf("spans = %+v, want [a b]", spans)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration did not panic")
		}
	}()
	NewFIFO(nil, "x").Reserve("bad", 0, -time.Second)
}
