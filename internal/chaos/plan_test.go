package chaos

import (
	"strings"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/netsim"
	"espresso/internal/strategy"
)

func TestParseAcceptsStringsAndNanoseconds(t *testing.T) {
	p, err := Parse([]byte(`{
		"seed": 42,
		"deadline": "5ms",
		"retry": {"timeout": 200000, "max_attempts": 8},
		"monitor": {"factor": 2.0, "consecutive": 2},
		"faults": [
			{"kind": "straggler", "src": -1, "scale": 0.25, "start": "20ms"},
			{"kind": "flap", "src": 0, "dst": 1, "scale": 0.5, "start": "0s", "duration": "10ms", "period": "1ms"},
			{"kind": "loss", "rate": 0.1, "start": "2ms", "duration": "3ms"},
			{"kind": "slow-device", "scale": 4, "device": "gpu"},
			{"kind": "corrupt", "rate": 0.5}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Deadline.D() != 5*time.Millisecond {
		t.Fatalf("header mis-parsed: %+v", p)
	}
	if p.Retry.Timeout.D() != 200*time.Microsecond || p.Retry.MaxAttempts != 8 {
		t.Fatalf("retry mis-parsed: %+v", p.Retry)
	}
	if len(p.Faults) != 5 || p.Faults[0].Start.D() != 20*time.Millisecond {
		t.Fatalf("faults mis-parsed: %+v", p.Faults)
	}
}

// A misspelled field is an error wherever it sits, not a setting
// silently left at its default; so is a second value after the plan.
func TestParseRejectsUnknownFields(t *testing.T) {
	for _, tc := range []struct{ plan, want string }{
		{`{"seed": 1, "deadlin": "2s", "faults": []}`, `unknown field "deadlin"`},
		{`{"retry": {"max_attempt": 8}, "faults": []}`, `unknown field "max_attempt"`},
		{`{"monitor": {"factr": 2}, "faults": []}`, `unknown field "factr"`},
		{`{"reconfig": {"polcy": "reselect"}, "faults": []}`, `unknown field "polcy"`},
		{`{"faults": [{"kind": "straggler", "src": -1, "scale": 0.5, "strat": "1s"}]}`, `unknown field "strat"`},
		{`{"faults": [{"kind": "loss", "rate": 0.1, "duraton": "1s"}]}`, `unknown field "duraton"`},
		{`{"faults": []} {"faults": []}`, "trailing data"},
		{`{"faults": []}}`, "trailing data"},
	} {
		if _, err := Parse([]byte(tc.plan)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("plan %s: got %v, want an error containing %q", tc.plan, err, tc.want)
		}
	}
}

// Each row must fail for its own reason, so a row cannot quietly start
// failing on an earlier rule and leave its check untested.
func TestValidateRejections(t *testing.T) {
	for _, tc := range []struct{ plan, want string }{
		{`{"faults": [{"kind": "straggler", "src": -1, "scale": 1.5}]}`, "scale 1.5, want (0, 1)"},
		{`{"faults": [{"kind": "straggler", "src": -1, "scale": 0}]}`, "scale 0, want (0, 1)"},
		{`{"faults": [{"kind": "flap", "src": -1, "scale": 0.5, "duration": "1ms"}]}`, "flap needs a positive period"},
		{`{"faults": [{"kind": "flap", "src": -1, "scale": 0.5, "period": "1ms"}]}`, "flap needs a bounded duration"},
		{`{"faults": [{"kind": "flap", "src": -1, "scale": 0.5, "period": "1us", "duration": "1s"}]}`, "flap cycles, want <= 10000"},
		{`{"faults": [{"kind": "loss", "rate": 1.0}]}`, "rate 1, want (0, 1)"},
		{`{"faults": [{"kind": "slow-device", "scale": 0.5}]}`, "scale 0.5, want >= 1"},
		{`{"faults": [{"kind": "slow-device", "scale": 2, "device": "tpu"}]}`, `device "tpu"`},
		{`{"faults": [{"kind": "corrupt", "rate": 0}]}`, "rate 0, want (0, 1]"},
		{`{"faults": [{"kind": "meteor"}]}`, "unknown kind"},
		{`{"faults": [{"kind": "loss", "rate": 0.1, "start": "-1ms"}]}`, "negative times"},
		{`{"monitor": {"factor": 0.5}, "faults": []}`, "monitor factor 0.5"},
		// Hardened validation: explicit zero-duration windows.
		{`{"faults": [{"kind": "loss", "rate": 0.1, "duration": "0s"}]}`, "zero-duration fault window"},
		{`{"faults": [{"kind": "straggler", "src": -1, "scale": 0.5, "duration": 0}]}`, "zero-duration fault window"},
		// A link fault must name two distinct machines or every link
		// (src -1). An omitted src reads as 0, so forgetting it names the
		// self-link 0->0, which no message uses: the run would stay
		// healthy and never trip.
		{`{"faults": [{"kind": "straggler", "scale": 0.1, "start": "0s"}]}`, "src -1 for every link"},
		{`{"faults": [{"kind": "straggler", "src": 2, "dst": 2, "scale": 0.1}]}`, "src -1 for every link"},
		{`{"faults": [{"kind": "flap", "src": -3, "dst": -9, "scale": 0.5, "duration": "10ms", "period": "1ms"}]}`, "src -1 for every link"},
		// Contradictory overlapping faults on the same link.
		{`{"faults": [
			{"kind": "straggler", "src": -1, "scale": 0.5, "start": "0s"},
			{"kind": "straggler", "src": 0, "dst": 1, "scale": 0.25, "start": "5ms"}]}`, "on the same link"},
		{`{"faults": [
			{"kind": "straggler", "src": 0, "dst": 1, "scale": 0.5, "start": "0s", "duration": "10ms"},
			{"kind": "flap", "src": 0, "dst": 1, "scale": 0.25, "start": "5ms", "duration": "10ms", "period": "1ms"}]}`, "on the same link"},
		{`{"faults": [
			{"kind": "loss", "rate": 0.1, "start": "0s"},
			{"kind": "loss", "rate": 0.2, "start": "1ms"}]}`, "contradictory loss rates"},
		// Membership validation.
		{`{"faults": [{"kind": "leave", "rank": -1}]}`, "rank -1, want >= 0"},
		{`{"faults": [{"kind": "leave", "rank": 0, "scale": 0.5}]}`, "do not apply to membership events"},
		{`{"faults": [{"kind": "leave", "rank": 0, "duration": "1ms"}]}`, "instantaneous"},
		{`{"faults": [
			{"kind": "leave", "rank": 1, "start": "1ms"},
			{"kind": "leave", "rank": 1, "start": "2ms"}]}`, "double leave of rank 1"},
		{`{"faults": [{"kind": "join", "rank": 1, "start": "1ms"}]}`, "join of present rank 1"},
		{`{"faults": [
			{"kind": "leave", "rank": 1, "start": "1ms"},
			{"kind": "join", "rank": 1, "start": "1ms"}]}`, "two membership events"},
		// A link fault naming a rank during its absence.
		{`{"faults": [
			{"kind": "leave", "rank": 1, "start": "1ms"},
			{"kind": "straggler", "src": 1, "dst": 2, "scale": 0.5, "start": "2ms", "duration": "1ms"}]}`, "overlaps rank 1's absence"},
		// Reconfig config validation.
		{`{"reconfig": {"policy": "panic"}, "faults": []}`, `reconfig policy "panic"`},
		{`{"reconfig": {"max_failures": -1}, "faults": []}`, "max_failures -1"},
		{`{"reconfig": {"barrier_backoff": 0.5}, "faults": []}`, "barrier_backoff 0.5"},
	} {
		if _, err := Parse([]byte(tc.plan)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("plan %s: got %v, want an error containing %q", tc.plan, err, tc.want)
		}
	}
}

// A consistent elastic schedule passes, and MembersAt tracks it.
func TestMembershipScheduleAndMembersAt(t *testing.T) {
	p, err := Parse([]byte(`{
		"seed": 1,
		"reconfig": {"policy": "continue-degraded", "barrier_timeout": "1ms"},
		"faults": [
			{"kind": "leave", "rank": 3, "start": "10ms"},
			{"kind": "join", "rank": 3, "start": "30ms"},
			{"kind": "leave", "rank": 1, "start": "20ms"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasMembershipFaults() {
		t.Fatal("membership faults not detected")
	}
	at := func(d time.Duration) []bool {
		members, err := p.MembersAt(d, 4)
		if err != nil {
			t.Fatal(err)
		}
		return members
	}
	if got := at(0); !got[0] || !got[1] || !got[2] || !got[3] {
		t.Fatalf("members at 0: %v", got)
	}
	if got := at(10 * time.Millisecond); got[3] {
		t.Fatal("rank 3 present after its leave instant")
	}
	if got := at(25 * time.Millisecond); got[1] || got[3] {
		t.Fatalf("members at 25ms: %v", got)
	}
	if got := at(time.Second); !got[3] || got[1] {
		t.Fatalf("members at 1s: %v", got)
	}
	if _, err := p.MembersAt(time.Second, 2); err == nil {
		t.Fatal("rank out of range accepted")
	}
}

func TestDeviceScalesCompose(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: SlowDevice, Scale: 2, Device: "gpu", Start: 0, Duration: Duration(10 * time.Millisecond)},
		{Kind: SlowDevice, Scale: 3, Start: Duration(5 * time.Millisecond)},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		at       time.Duration
		gpu, cpu float64
	}{
		{0, 2, 1},
		{7 * time.Millisecond, 6, 3},
		{12 * time.Millisecond, 3, 3},
	} {
		gpu, cpu := p.DeviceScalesAt(tc.at)
		if gpu != tc.gpu || cpu != tc.cpu {
			t.Errorf("at %v: got %g/%g, want %g/%g", tc.at, gpu, cpu, tc.gpu, tc.cpu)
		}
	}
}

func TestCorruptRateWindow(t *testing.T) {
	p := &Plan{Faults: []Fault{
		{Kind: Corrupt, Rate: 0.25, Start: Duration(time.Millisecond), Duration: Duration(time.Millisecond)},
	}}
	if got := p.CorruptRate(0); got != 0 {
		t.Fatalf("rate before window: %g", got)
	}
	if got := p.CorruptRate(1500 * time.Microsecond); got != 0.25 {
		t.Fatalf("rate inside window: %g", got)
	}
	if got := p.CorruptRate(3 * time.Millisecond); got != 0 {
		t.Fatalf("rate after window: %g", got)
	}
}

func TestTransitionsLowering(t *testing.T) {
	ms := Duration(time.Millisecond)
	p := &Plan{Faults: []Fault{
		{Kind: Straggler, Src: 0, Dst: 1, Scale: 0.25, Start: ms, Duration: 2 * ms},
		{Kind: Flap, Src: -1, Scale: 0.5, Start: 0, Duration: 4 * ms, Period: ms},
		{Kind: Loss, Rate: 0.1, Start: ms, Duration: ms},
		{Kind: Straggler, Src: 2, Dst: 3, Scale: 0.5, Start: 6 * ms},
		{Kind: Leave, Rank: 1, Start: 8 * ms},
	}}
	ts := p.transitionsFor([]int{0, 1, 2, 3}, 1e9)
	// Straggler: degrade + restore. Flap: 4 toggles + final restore.
	// Loss: set + clear. Sustained straggler: degrade. Leave: one
	// member transition. Total 2 + 5 + 2 + 1 + 1 = 11.
	if len(ts) != 11 {
		t.Fatalf("got %d transitions: %+v", len(ts), ts)
	}
	if ts[0].Bps != 0.25e9 || ts[1].Bps != 1e9 {
		t.Fatalf("straggler lowering wrong: %+v %+v", ts[0], ts[1])
	}
	if ts[2].Src != -1 || ts[2].Bps != 0.5e9 {
		t.Fatalf("flap lowering wrong: %+v", ts[2])
	}
	if ts[7].Loss != 0.1 || ts[8].Loss != 0 {
		t.Fatalf("loss lowering wrong: %+v %+v", ts[7], ts[8])
	}
	if ts[10].Member != netsim.MemberLeave || ts[10].Src != 1 {
		t.Fatalf("leave lowering wrong: %+v", ts[10])
	}

	// Without rank 1 the survivors renumber: link 2->3 lands on network
	// link 1->2, and the faults naming rank 1 are dropped. Global faults
	// and loss still apply.
	ts = p.transitionsFor([]int{0, 2, 3}, 1e9)
	if len(ts) != 8 {
		t.Fatalf("survivors {0, 2, 3}: got %d transitions: %+v", len(ts), ts)
	}
	if tr := ts[7]; tr.Src != 1 || tr.Dst != 2 || tr.Bps != 0.5e9 {
		t.Fatalf("remapped straggler wrong: %+v", tr)
	}

	// NewRunner, which knows the full topology, rejects a fault naming
	// a machine outside it.
	for _, f := range []Fault{
		{Kind: Straggler, Src: 0, Dst: 9, Scale: 0.5},
		{Kind: Leave, Rank: 4},
	} {
		_, err := NewRunner(commBound(), cluster.NVLinkTestbed(4), dgc(), &strategy.Strategy{}, &Plan{Faults: []Fault{f}})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%+v: got %v, want an out-of-range error", f, err)
		}
	}
}

// A straggler on every link degrades the network of the first
// iteration: its links run at the scaled bandwidth and its replay is
// slower than a healthy run's.
func TestNewRunnerProgramsNetwork(t *testing.T) {
	healthy, err := newRunner(t, &Plan{Seed: 9}).RunIteration(0)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, &Plan{Seed: 9, Faults: []Fault{{Kind: Straggler, Src: -1, Scale: 0.5}}})
	s, err := r.RunIteration(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range r.nw.Snapshot() {
		for j, bps := range row {
			if want := 0.5 * r.C.InterBandwidth; bps != want {
				t.Fatalf("link %d->%d at %g, want %g", i, j, bps, want)
			}
		}
	}
	if s.Comm <= healthy.Comm {
		t.Fatalf("degraded comm %v, healthy %v", s.Comm, healthy.Comm)
	}
}

func TestMonitorTripsOnConsecutiveBreaches(t *testing.T) {
	mo := NewMonitor(MonitorConfig{Factor: 1.5, Consecutive: 3})
	pred := 10 * time.Millisecond
	feed := func(observed time.Duration) (breach, tripped bool) {
		return mo.Observe(pred, observed)
	}

	// Two breaches then a healthy iteration: counter resets.
	feed(20 * time.Millisecond)
	feed(20 * time.Millisecond)
	if breach, tripped := feed(11 * time.Millisecond); breach || tripped {
		t.Fatal("healthy iteration classified as breach")
	}
	// Three consecutive breaches trip.
	feed(16 * time.Millisecond)
	feed(16 * time.Millisecond)
	if _, tripped := feed(16 * time.Millisecond); !tripped {
		t.Fatal("three consecutive breaches did not trip")
	}
	if !mo.tripped {
		t.Fatal("Tripped not latched")
	}
	mo.Reset()
	if mo.tripped {
		t.Fatal("Reset did not clear trip")
	}
}

func TestMonitorDefaults(t *testing.T) {
	mo := NewMonitor(MonitorConfig{})
	if mo.Factor != 1.5 || mo.Consecutive != 3 {
		t.Fatalf("defaults wrong: %+v", mo)
	}
}
