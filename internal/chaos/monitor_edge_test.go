package chaos

import (
	"testing"
	"time"
)

// feedIteration classifies one iteration with the given observed
// makespan against a fixed 10ms prediction.
func feedIteration(mo *Monitor, observed time.Duration) (breach, tripped bool) {
	return mo.Observe(10*time.Millisecond, observed)
}

// K=1 is the most aggressive detector configuration: the very first
// breach must trip, and healthy iterations before it must not.
func TestMonitorConsecutiveOneTripsOnFirstBreach(t *testing.T) {
	mo := NewMonitor(MonitorConfig{Factor: 2, Consecutive: 1})
	if breach, tripped := feedIteration(mo, 15*time.Millisecond); breach || tripped {
		t.Fatalf("healthy iteration: breach=%v tripped=%v", breach, tripped)
	}
	breach, tripped := feedIteration(mo, 25*time.Millisecond)
	if !breach {
		t.Fatal("2.5x the prediction not classified as a breach at factor 2")
	}
	if !tripped {
		t.Fatal("K=1 monitor did not trip on its first breach")
	}
	if !mo.tripped {
		t.Fatal("trip not latched")
	}
}

// A breach streak that never reaches K must never trip, no matter how
// many times it recurs: every healthy iteration resets the counter to
// zero, so alternating breach/healthy forever stays below K=2.
func TestMonitorStreakResetsEachHealthyIteration(t *testing.T) {
	mo := NewMonitor(MonitorConfig{Factor: 1.5, Consecutive: 2})
	for i := 0; i < 20; i++ {
		if _, tripped := feedIteration(mo, 30*time.Millisecond); tripped {
			t.Fatalf("tripped on round %d despite streak never reaching 2", i)
		}
		if breach, tripped := feedIteration(mo, 10*time.Millisecond); breach || tripped {
			t.Fatalf("round %d: healthy iteration breach=%v tripped=%v", i, breach, tripped)
		}
	}
	if mo.tripped {
		t.Fatal("alternating breach/healthy tripped the monitor")
	}
}

// The breach test is strictly greater-than: observed exactly at
// Factor*predicted is still healthy, so a plan running exactly at the
// threshold never accumulates a streak.
func TestMonitorExactThresholdIsNotABreach(t *testing.T) {
	mo := NewMonitor(MonitorConfig{Factor: 1.5, Consecutive: 1})
	if breach, tripped := feedIteration(mo, 15*time.Millisecond); breach || tripped {
		t.Fatalf("observed == Factor*predicted classified as breach=%v tripped=%v", breach, tripped)
	}
}

// A plan whose faults all expire before a K-length streak can form must
// never trigger re-selection: the transient straggler covers at most the
// first iteration, every later iteration is healthy and resets the
// streak, and the run ends with the healthy strategy still in place.
func TestExpiredFaultsNeverTriggerReselection(t *testing.T) {
	plan := &Plan{
		Seed:    11,
		Monitor: MonitorConfig{Factor: 1.5, Consecutive: 2},
		Faults: []Fault{{
			Kind: Straggler, Src: -1, Scale: 0.05,
			Duration: Duration(time.Millisecond),
		}},
	}
	r := newRunner(t, plan)
	before := r.Strategy
	rep, err := r.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) != 6 {
		t.Fatalf("got %d samples, want 6", len(rep.Samples))
	}
	if rep.Reselected != nil {
		t.Fatalf("expired fault triggered re-selection at iteration %d", rep.Reselected.Iteration)
	}
	if r.monitor.tripped {
		t.Fatal("monitor tripped after every fault expired")
	}
	for _, s := range rep.Samples[1:] {
		if s.Breach {
			t.Fatalf("iteration %d breached after the fault window closed", s.Iteration)
		}
	}
	if r.Strategy != before {
		t.Fatal("strategy changed without a re-selection")
	}
}
