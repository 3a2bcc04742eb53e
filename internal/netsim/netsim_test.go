package netsim

import (
	"errors"
	"math"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

const bps = 10e9

func within(t *testing.T, name string, got, want time.Duration, tolPct float64) {
	t.Helper()
	diff := math.Abs(float64(got-want)) / float64(want) * 100
	if diff > tolPct {
		t.Errorf("%s: netsim %v vs model %v (%.1f%% apart, tol %v%%)", name, got, want, diff, tolPct)
	}
}

// ok returns an unwrapper for fault-free collective results, so calls
// compose as ok(t)(nw.RingAllreduce(bytes)).
func ok(t *testing.T) func(d time.Duration, err error) time.Duration {
	return func(d time.Duration, err error) time.Duration {
		t.Helper()
		if err != nil {
			t.Fatalf("fault-free collective failed: %v", err)
		}
		return d
	}
}

// With zero latency the message-level simulation must match the α–β
// closed forms exactly (up to integer chunking).
func TestRingMatchesModelZeroLatency(t *testing.T) {
	link := cost.Link{Alpha: 0, Bps: bps}
	for _, n := range []int{2, 4, 8} {
		nw := MustNew(n, 0, bps)
		bytes := int64(64 << 20)
		within(t, "allreduce", ok(t)(nw.RingAllreduce(bytes)), link.Allreduce(n, bytes), 1)

		nw = MustNew(n, 0, bps)
		within(t, "allgather", ok(t)(nw.RingAllgather(1<<20)), link.Allgather(n, 1<<20), 1)

		nw = MustNew(n, 0, bps)
		within(t, "reduce-scatter", ok(t)(nw.RingReduceScatter(bytes)), link.ReduceScatter(n, bytes), 1)
	}
}

// With realistic latency the closed forms stay within ~15% of the
// message-level simulation — the §4.3 faithfulness check.
func TestModelsFaithfulWithLatency(t *testing.T) {
	alpha := 30 * time.Microsecond
	link := cost.Link{Alpha: alpha, Bps: bps}
	for _, n := range []int{4, 8, 16} {
		bytes := int64(16 << 20)
		nw := MustNew(n, alpha, bps)
		within(t, "allreduce", ok(t)(nw.RingAllreduce(bytes)), link.Allreduce(n, bytes), 15)

		nw = MustNew(n, alpha, bps)
		within(t, "allgather", ok(t)(nw.RingAllgather(1<<20)), link.Allgather(n, 1<<20), 15)

		nw = MustNew(n, alpha, bps)
		within(t, "alltoall", ok(t)(nw.Alltoall(8<<20)), link.Alltoall(n, 8<<20), 25)

		nw = MustNew(n, alpha, bps)
		within(t, "broadcast", ok(t)(nw.TreeBroadcast(4<<20)), link.Broadcast(n, 4<<20), 25)
	}
}

// A straggler link slows the whole ring — heterogeneity the closed-form
// model cannot see, and the reason netsim exists as a separate check.
func TestStragglerSlowsRing(t *testing.T) {
	n := 8
	bytes := int64(64 << 20)
	fast := MustNew(n, 0, bps)
	base := ok(t)(fast.RingAllreduce(bytes))

	slow := MustNew(n, 0, bps)
	apply(t, slow, Transition{Src: 3, Dst: 4, Bps: bps / 4, Loss: -1})
	degraded := ok(t)(slow.RingAllreduce(bytes))
	if degraded <= base {
		t.Fatalf("straggler did not slow the ring: %v <= %v", degraded, base)
	}
	// The ring is gated by its slowest link: expect roughly 4x.
	if float64(degraded) < 3*float64(base) {
		t.Fatalf("straggler impact too small: %v vs %v", degraded, base)
	}
}

func TestSingleNodeIsFree(t *testing.T) {
	nw := MustNew(1, time.Millisecond, bps)
	if ok(t)(nw.RingAllreduce(1<<20)) != 0 {
		t.Fatal("single-node allreduce should be free")
	}
	nw = MustNew(1, time.Millisecond, bps)
	if ok(t)(nw.TreeBroadcast(1<<20)) != 0 {
		t.Fatal("single-node broadcast should be free")
	}
}

func TestBroadcastReachesAllNodeCounts(t *testing.T) {
	// Completion time grows with ceil(log2 n) tree depth.
	prev := time.Duration(0)
	for _, n := range []int{2, 4, 8, 16} {
		nw := MustNew(n, 0, bps)
		d := ok(t)(nw.TreeBroadcast(32 << 20))
		if d < prev {
			t.Fatalf("broadcast time decreased from %v to %v at n=%d", prev, d, n)
		}
		prev = d
	}
}

func TestSelfSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-send did not panic")
		}
	}()
	nw := MustNew(2, 0, bps)
	nw.send(1, 1, 10, func() {})
}

// Construction and link transitions reject invalid arguments with
// errors, not panics: fault plans come from user JSON.
func TestConstructionAndLinkErrors(t *testing.T) {
	if _, err := New(0, 0, bps); err == nil {
		t.Error("New accepted 0 nodes")
	}
	if _, err := New(-3, 0, bps); err == nil {
		t.Error("New accepted negative nodes")
	}
	if _, err := New(4, 0, 0); err == nil {
		t.Error("New accepted zero bandwidth")
	}
	nw := MustNew(4, 0, bps)
	for _, bad := range [][3]float64{{-2, 0, bps}, {0, 4, bps}, {4, 0, bps}, {0, 1, 0}, {0, 1, -5}} {
		if err := nw.Program([]Transition{{Src: int(bad[0]), Dst: int(bad[1]), Bps: bad[2], Loss: -1}}); err == nil {
			t.Errorf("link transition %v accepted invalid arguments", bad)
		}
	}
	if err := nw.Program([]Transition{{Src: 0, Dst: 1, Bps: bps / 2, Loss: -1}}); err != nil {
		t.Errorf("valid link transition failed: %v", err)
	}
}

// apply programs one transition at t=0 and applies it at once, the way a
// fault plan's opening window lands before the first collective.
func apply(t *testing.T, nw *Network, tr Transition) {
	t.Helper()
	if err := nw.Program([]Transition{tr}); err != nil {
		t.Fatal(err)
	}
	nw.Idle(0)
}

// Snapshot is a deep copy of the current link state.
func TestSnapshotIsDeepCopy(t *testing.T) {
	nw := MustNew(3, 0, bps)
	apply(t, nw, Transition{Src: 1, Dst: 2, Bps: bps / 8, Loss: -1})
	snap := nw.Snapshot()
	if snap[1][2] != bps/8 || snap[0][1] != bps {
		t.Fatalf("snapshot does not reflect link state: %v", snap)
	}
	snap[0][1] = 1 // mutating the copy must not touch the network
	if nw.Snapshot()[0][1] != bps {
		t.Fatal("Snapshot aliases internal state")
	}
}

// Loss makes a collective slower (retransmissions cost simulated time)
// but it still completes; the same seed reproduces the exact duration.
func TestLossRetransmitsDeterministically(t *testing.T) {
	run := func(seed uint64) (time.Duration, FaultStats) {
		nw := MustNew(4, time.Microsecond, 1e9)
		nw.Seed(seed)
		apply(t, nw, Transition{Src: -1, Loss: 0.2})
		d := ok(t)(nw.RingAllreduce(4 << 20))
		return d, nw.Stats()
	}
	clean := MustNew(4, time.Microsecond, 1e9)
	base := ok(t)(clean.RingAllreduce(4 << 20))

	d1, st1 := run(7)
	d2, st2 := run(7)
	if d1 != d2 || st1 != st2 {
		t.Fatalf("same seed diverged: %v/%+v vs %v/%+v", d1, st1, d2, st2)
	}
	if st1.Dropped == 0 || st1.Retransmits != st1.Dropped {
		t.Fatalf("expected drops fully retried, got %+v", st1)
	}
	if d1 <= base {
		t.Fatalf("lossy run not slower: %v <= %v", d1, base)
	}
	if d3, st3 := run(8); d3 == d1 && st3 == st1 {
		t.Fatalf("different seeds produced identical runs (%v, %+v)", d1, st1)
	}
}

// Exhausting the retransmission budget surfaces a typed DeliveryError
// instead of hanging the event loop.
func TestDeliveryErrorAfterMaxAttempts(t *testing.T) {
	nw := MustNew(2, 0, 1e9)
	nw.Seed(1)
	nw.SetRecovery(Recovery{Timeout: time.Microsecond, MaxAttempts: 2})
	apply(t, nw, Transition{Src: -1, Loss: 0.999999})
	_, err := nw.RingAllreduce(1 << 20)
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want *DeliveryError", err)
	}
	if de.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", de.Attempts)
	}
}

// An armed deadline aborts a stalled collective with a typed error and
// leaves the queue empty for the next operation.
func TestDeadlineAborts(t *testing.T) {
	nw := MustNew(4, 0, 1e6) // 1 MB/s: a 64 MB allreduce takes ~96 s virtual
	nw.ArmDeadline(10 * time.Millisecond)
	_, err := nw.RingAllreduce(64 << 20)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want *DeadlineError", err)
	}
	if de.Pending == 0 {
		t.Fatal("deadline error reports no discarded events")
	}
	// The queue is clean: a fast follow-up collective succeeds.
	nw.Reset()
	nw.ArmDeadline(time.Hour)
	if d := ok(t)(nw.RingAllreduce(1 << 10)); d <= 0 {
		t.Fatalf("follow-up collective after abort: %v", d)
	}
}

// A programmed transition timeline degrades and restores a link while a
// sequence of collectives runs, without fault events entering the queue.
func TestProgramAppliesTransitionsLazily(t *testing.T) {
	mk := func() *Network { return MustNew(4, 0, 1e9) }

	// Baseline: two identical back-to-back allreduces.
	base := mk()
	d1 := ok(t)(base.RingAllreduce(4 << 20))
	base.Reset()
	d2 := ok(t)(base.RingAllreduce(4 << 20))
	if d1 != d2 {
		t.Fatalf("baseline not stable: %v vs %v", d1, d2)
	}

	// Degrade every link 8x from t=0; with zero latency the degraded
	// collective takes exactly 8*d1, so restore right at its finish.
	faulty := mk()
	if err := faulty.Program([]Transition{
		{At: 0, Src: -1, Bps: 1e9 / 8, Loss: -1},
		{At: 8 * d1, Src: -1, Bps: 1e9, Loss: -1},
	}); err != nil {
		t.Fatal(err)
	}
	slow := ok(t)(faulty.RingAllreduce(4 << 20))
	if float64(slow) < 6*float64(d1) {
		t.Fatalf("degraded collective only %v vs healthy %v", slow, d1)
	}
	// The restore transition fired with the collective's final arrival.
	if got := faulty.Snapshot()[0][1]; got != 1e9 {
		t.Fatalf("snapshot after restore: %v, want healthy", got)
	}
	faulty.Reset()
	restored := ok(t)(faulty.RingAllreduce(4 << 20))
	if restored != d1 {
		t.Fatalf("restored collective %v, want healthy %v", restored, d1)
	}

	// Invalid transitions are rejected.
	if err := mk().Program([]Transition{{At: 0, Src: 9, Dst: 0, Bps: 1, Loss: -1}}); err == nil {
		t.Error("Program accepted out-of-range link")
	}
	if err := mk().Program([]Transition{{At: 0, Src: 0, Dst: 1, Bps: -2, Loss: -1}}); err == nil {
		t.Error("Program accepted negative bandwidth")
	}
	if err := mk().Program([]Transition{{At: 0, Src: -1, Loss: 1.5}}); err == nil {
		t.Error("Program accepted loss >= 1")
	}
}

// The message-level hierarchical composition agrees with the timeline
// engine's three-phase FP32 chain for a single tensor — the end-to-end
// faithfulness check tying netsim to the analytic models.
func TestHierarchicalMatchesTimelineChain(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	cm, err := cost.NewModels(c, compress.Spec{ID: compress.FP32})
	if err != nil {
		t.Fatal(err)
	}
	m := model.Synthetic("one", []int{8 << 20}, []time.Duration{0}, 0)
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	s := strategy.Uniform(1, strategy.NoCompression(c))
	analytic, err := eng.IterTime(s)
	if err != nil {
		t.Fatal(err)
	}
	simulated := HierarchicalAllreduce(
		c.GPUsPerMachine, c.Machines,
		c.IntraBandwidth, c.InterBandwidth,
		c.InterLatency, // conservative: the larger latency everywhere
		m.Tensors[0].Bytes())
	within(t, "hierarchical", simulated, analytic, 20)
}

// Link telemetry: a symmetric ring keeps every egress link equally busy,
// utilization lands in (0, 1], and spans/metrics surface through obs.
func TestLinkStatsAndObserve(t *testing.T) {
	nw := MustNew(4, 2*time.Microsecond, 1e9)
	ok(t)(nw.RingAllreduce(4 << 20))

	stats := nw.LinkStats()
	if len(stats) != 4 {
		t.Fatalf("stats for %d nodes, want 4", len(stats))
	}
	for _, st := range stats {
		// 2(n-1) rounds, one message per node per round.
		if st.Messages != 6 {
			t.Errorf("node %d sent %d messages, want 6", st.Node, st.Messages)
		}
		if st.Utilization <= 0 || st.Utilization > 1 {
			t.Errorf("node %d utilization %v outside (0,1]", st.Node, st.Utilization)
		}
		if st.Busy != stats[0].Busy {
			t.Errorf("asymmetric busy on symmetric ring: node %d %v vs %v", st.Node, st.Busy, stats[0].Busy)
		}
	}

	tr := obs.NewTrace()
	mx := obs.NewMetrics()
	nw.Observe(tr, mx, obs.PhaseLink)
	if tr.Len() != 24 {
		t.Errorf("trace has %d spans, want 24 (4 nodes x 6 messages)", tr.Len())
	}
	snap := mx.Snapshot()
	if snap.Counters["netsim.messages"] != 24 {
		t.Errorf("netsim.messages = %d, want 24", snap.Counters["netsim.messages"])
	}
	if u := snap.Gauges["netsim.link_utilization.mean"]; u <= 0 || u > 1 {
		t.Errorf("mean utilization %v outside (0,1]", u)
	}
	if snap.Gauges["netsim.makespan_us"] <= 0 {
		t.Error("makespan gauge not set")
	}

	// Reset clears the histories for an independent follow-up run.
	nw.Reset()
	for _, st := range nw.LinkStats() {
		if st.Messages != 0 || st.Busy != 0 {
			t.Fatalf("reset left history: %+v", st)
		}
	}
}

// A straggler link must show up as skewed utilization — the
// heterogeneity signal the closed forms cannot express.
func TestLinkStatsExposeStraggler(t *testing.T) {
	nw := MustNew(4, time.Microsecond, 1e9)
	apply(t, nw, Transition{Src: 0, Dst: 1, Bps: 1e8, Loss: -1}) // node 0's egress is 10x slower
	ok(t)(nw.RingAllreduce(4 << 20))
	stats := nw.LinkStats()
	if stats[0].Busy <= stats[1].Busy {
		t.Fatalf("straggler link not busier: node0 %v vs node1 %v", stats[0].Busy, stats[1].Busy)
	}
}
