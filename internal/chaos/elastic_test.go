package chaos

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"espresso/internal/netsim"
	"espresso/internal/obs/flight"
)

// probeIteration measures one healthy iteration's observed and comm
// times, so elastic plans can place events inside (or outside) the
// communication replay window without hard-coding model timings.
func probeIteration(t *testing.T) (observed, comm time.Duration) {
	t.Helper()
	r := newRunner(t, &Plan{Seed: 1})
	s, err := r.RunIteration(0)
	if err != nil {
		t.Fatal(err)
	}
	return s.Observed.D(), s.Comm.D()
}

// elasticPlan schedules rank 3 leaving mid-communication of iteration 1
// and rejoining at an iteration boundary near iteration 4.
func elasticPlan(t *testing.T, seed uint64, rc ReconfigConfig) *Plan {
	t.Helper()
	observed, comm := probeIteration(t)
	p := &Plan{
		Seed:     seed,
		Reconfig: rc,
		Faults: []Fault{
			{Kind: Leave, Rank: 3, Start: Duration(observed + comm/2)},
			{Kind: Join, Rank: 3, Start: Duration(4 * observed)},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// The tentpole scenario: a rank leaves mid-iteration (detected by
// fail-fast delivery), the survivors quiesce and re-select on the
// restricted topology, the run resumes on 3 machines, and the rank's
// rejoin re-expands symmetrically.
func TestElasticLeaveRejoinEndToEnd(t *testing.T) {
	r := newRunner(t, elasticPlan(t, 9, ReconfigConfig{}))
	fr := flight.New(flight.Config{})
	r.Flight = fr
	rep, err := r.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Membership) != 2 {
		t.Fatalf("got %d membership events, want 2: %+v", len(rep.Membership), rep.Membership)
	}
	leave, join := rep.Membership[0], rep.Membership[1]
	if leave.Detected != DetectDelivery {
		t.Fatalf("leave detected via %q, want %q", leave.Detected, DetectDelivery)
	}
	if len(leave.Left) != 1 || leave.Left[0] != 3 || len(leave.Members) != 3 {
		t.Fatalf("leave event wrong: %+v", leave)
	}
	if leave.Generation != 1 || leave.BarrierAttempts < 1 {
		t.Fatalf("leave bookkeeping wrong: %+v", leave)
	}
	if leave.Reselection == nil {
		t.Fatal("reselect policy produced no re-selection")
	}
	// The acceptance criterion: the re-selected strategy's predicted
	// iteration time on the restricted topology is never worse than the
	// stale strategy replayed on it.
	if leave.Reselection.After > leave.Reselection.Before {
		t.Fatalf("re-selection regressed on the restricted topology: before %v after %v",
			leave.Reselection.Before, leave.Reselection.After)
	}
	if join.Detected != DetectSchedule {
		t.Fatalf("join detected via %q, want %q", join.Detected, DetectSchedule)
	}
	if len(join.Joined) != 1 || join.Joined[0] != 3 || len(join.Members) != 4 {
		t.Fatalf("join event wrong: %+v", join)
	}

	// Samples shrink from 4 to 3 machines and grow back.
	counts := map[int]bool{}
	for _, s := range rep.Samples {
		counts[s.Members] = true
	}
	if !counts[4] || !counts[3] {
		t.Fatalf("samples never ran on both topologies: %+v", rep.Samples)
	}
	if rep.Samples[len(rep.Samples)-1].Members != 4 {
		t.Fatal("run did not re-expand to 4 machines")
	}
	if rep.Net.MemberFailures == 0 {
		t.Fatal("mid-iteration leave produced no fail-fast member failures")
	}

	// Every reconfiguration is captured as a flight-recorder anomaly.
	anoms := fr.Anomalies()
	reconfigs := 0
	for _, a := range anoms {
		if a.Outcome == flight.OutcomeReconfig {
			reconfigs++
			if !a.Anomaly || a.AnomalyReason != "reconfig" {
				t.Fatalf("reconfig record not anomalous: %+v", a)
			}
		}
	}
	if reconfigs != 2 {
		t.Fatalf("got %d reconfig anomalies, want 2", reconfigs)
	}
}

// A seeded elastic plan is deterministic: byte-identical reports across
// reruns and search parallelism levels (Deterministic zeroes the
// re-selection wall clock). The plan also drops messages, so every
// network generation's loss stream, the shrunken one's included, is
// part of the report.
func TestElasticDeterministicAcrossRunsAndParallelism(t *testing.T) {
	plan := elasticPlan(t, 11, ReconfigConfig{})
	plan.Faults = append(plan.Faults, Fault{Kind: Loss, Rate: 0.05})
	run := func(parallelism int) []byte {
		r := newRunner(t, plan)
		r.Parallelism = parallelism
		r.Deterministic = true
		rep, err := r.Run(7)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := run(1), run(1), run(2)
	if string(a) != string(b) {
		t.Fatalf("same seed diverged across reruns:\n%s\n%s", a, b)
	}
	if string(a) != string(c) {
		t.Fatalf("parallelism changed the report:\n%s\n%s", a, c)
	}
	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	drops := map[int]int64{} // machines -> drops
	for _, s := range rep.Samples {
		drops[s.Members] += s.Drops
	}
	if len(rep.Membership) != 2 || drops[3] == 0 || drops[4] == 0 {
		t.Fatalf("want drops on both topologies across 2 membership events, got %v over %d events",
			drops, len(rep.Membership))
	}
}

// continue-degraded keeps the stale strategy: the reconfiguration
// happens (membership events recorded) but no re-selection runs.
func TestPolicyContinueDegraded(t *testing.T) {
	r := newRunner(t, elasticPlan(t, 13, ReconfigConfig{Policy: PolicyContinueDegraded}))
	before := r.Strategy
	rep, err := r.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Membership) != 2 {
		t.Fatalf("got %d membership events, want 2", len(rep.Membership))
	}
	for _, ev := range rep.Membership {
		if ev.Reselection != nil {
			t.Fatalf("continue-degraded re-selected: %+v", ev)
		}
		if ev.Policy != PolicyContinueDegraded {
			t.Fatalf("event policy %q", ev.Policy)
		}
	}
	if r.Strategy != before {
		t.Fatal("continue-degraded changed the strategy")
	}
}

// abort-after-n-failures stops the run with the typed AbortError once
// mid-iteration membership failures reach the threshold.
func TestPolicyAbortAfterNFailures(t *testing.T) {
	plan := elasticPlan(t, 17, ReconfigConfig{Policy: PolicyAbortAfterN, MaxFailures: 1})
	r := newRunner(t, plan)
	_, err := r.Run(7)
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v, want *AbortError", err)
	}
	if ae.Failures != 1 {
		t.Fatalf("failures = %d, want 1", ae.Failures)
	}
	var gone *netsim.MemberGoneError
	if !errors.As(err, &gone) {
		t.Fatalf("AbortError does not carry the member failure: %v", err)
	}
}

// A quiesce barrier whose per-attempt budget can never fit the barrier
// exchange exhausts its bounded attempts and fails with the typed
// BarrierError.
func TestQuiesceBarrierExhaustionTyped(t *testing.T) {
	plan := elasticPlan(t, 19, ReconfigConfig{
		BarrierTimeout:  Duration(1), // 1ns: no attempt can complete
		BarrierBackoff:  1,
		BarrierAttempts: 3,
	})
	r := newRunner(t, plan)
	_, err := r.Run(7)
	var be *BarrierError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BarrierError", err)
	}
	if be.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", be.Attempts)
	}
}

// A leave/join blip fully contained in the compute window between two
// iterations' communication phases causes no delivery failure and nets
// out to no membership change: the run never reconfigures.
func TestBlipBetweenCommWindowsIsInvisible(t *testing.T) {
	observed, comm := probeIteration(t)
	blipStart := observed + comm + (observed-comm)/4
	p := &Plan{
		Seed: 23,
		Faults: []Fault{
			{Kind: Leave, Rank: 2, Start: Duration(blipStart)},
			{Kind: Join, Rank: 2, Start: Duration(blipStart + (observed-comm)/4)},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(t, p)
	rep, err := r.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Membership) != 0 {
		t.Fatalf("contained blip reconfigured: %+v", rep.Membership)
	}
	if rep.Net.MemberFailures != 0 {
		t.Fatalf("contained blip failed messages: %+v", rep.Net)
	}
}
