// Package netsim is a message-level network simulator: nodes with
// serialized egress links exchange individual messages through the
// discrete-event kernel. The collective routines here move one message at
// a time, with per-link bandwidth and per-message latency — independently
// of the closed-form α–β cost models in the cost package, which they
// exist to validate (the cross-check behind §4.3's claim that the
// communication models are faithful). Unlike the closed forms, netsim
// also expresses heterogeneity and faults: a straggler link slows the
// whole ring, lossy links retransmit with capped exponential backoff, and
// a per-operation deadline aborts with a typed error instead of hanging.
package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"espresso/internal/obs"
	"espresso/internal/sim"
	"espresso/internal/splitmix"
)

// Network is a fully connected set of nodes.
type Network struct {
	eng    *sim.Engine
	n      int
	alpha  time.Duration
	bps    [][]float64 // [src][dst] link bandwidth
	active []bool      // membership; messages touching an inactive node fail fast
	egress []*sim.FIFO

	// Fault state. loss is the current message-loss probability; timeline
	// holds programmed transitions applied lazily by advance; deadlineAt
	// (< 0 when unarmed) bounds each collective in absolute virtual time.
	rec        Recovery
	loss       float64
	rng        splitmix.Rand
	timeline   []Transition
	cursor     int
	deadlineAt time.Duration
	firstErr   error
	stats      FaultStats
}

// New builds an n-node network with uniform per-message latency alpha and
// link bandwidth bps.
func New(n int, alpha time.Duration, bps float64) (*Network, error) {
	if n <= 0 {
		return nil, fmt.Errorf("netsim: node count %d, want > 0", n)
	}
	if bps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth %g B/s, want > 0", bps)
	}
	eng := sim.NewEngine()
	nw := &Network{eng: eng, n: n, alpha: alpha, rec: DefaultRecovery(), deadlineAt: -1}
	nw.bps = make([][]float64, n)
	nw.active = make([]bool, n)
	nw.egress = make([]*sim.FIFO, n)
	for i := 0; i < n; i++ {
		nw.bps[i] = make([]float64, n)
		for j := range nw.bps[i] {
			nw.bps[i][j] = bps
		}
		nw.active[i] = true
		nw.egress[i] = sim.NewFIFO(eng, fmt.Sprintf("egress%d", i))
	}
	return nw, nil
}

// MustNew is New for static configurations known to be valid; it panics
// on error.
func MustNew(n int, alpha time.Duration, bps float64) *Network {
	nw, err := New(n, alpha, bps)
	if err != nil {
		panic(err)
	}
	return nw
}

// Snapshot returns a deep copy of the current link-bandwidth matrix
// ([src][dst], bytes/s) — the degraded-topology view the chaos controller
// feeds back into strategy selection.
func (nw *Network) Snapshot() [][]float64 {
	out := make([][]float64, nw.n)
	for i := range out {
		out[i] = append([]float64(nil), nw.bps[i]...)
	}
	return out
}

// Nodes reports the node count.
func (nw *Network) Nodes() int { return nw.n }

// Now reports the network's absolute virtual time.
func (nw *Network) Now() time.Duration { return nw.eng.Now() }

// SetRecovery replaces the retransmission policy; zero fields fall back
// to DefaultRecovery values.
func (nw *Network) SetRecovery(r Recovery) { nw.rec = r.withDefaults() }

// Seed seeds the private PRNG that decides message loss. Identical seeds
// and plans produce bit-identical traffic.
func (nw *Network) Seed(seed uint64) { nw.rng = splitmix.Rand(seed) }

// ArmDeadline bounds the next collectives: each aborts with a
// *DeadlineError if it has not completed within budget of its start.
// A non-positive budget disarms.
func (nw *Network) ArmDeadline(budget time.Duration) {
	if budget <= 0 {
		nw.deadlineAt = -1
		return
	}
	nw.deadlineAt = nw.eng.Now() + budget
}

// Program installs a timeline of fault transitions (sorted by At by the
// caller or not — Program sorts stably). Transitions at or before an
// operation's current virtual time apply immediately on its next
// transfer; later ones apply as the clock crosses them. Programming
// replaces any earlier timeline.
func (nw *Network) Program(ts []Transition) error {
	sorted := slices.Clone(ts)
	slices.SortStableFunc(sorted, func(a, b Transition) int { return cmp.Compare(a.At, b.At) })
	for _, tr := range sorted {
		if tr.Bps == 0 && tr.Loss < 0 && tr.Member == MemberNone {
			return fmt.Errorf("netsim: transition at %v changes nothing", tr.At)
		}
		if tr.Member != MemberNone && (tr.Src < 0 || tr.Src >= nw.n) {
			return fmt.Errorf("netsim: transition at %v: member %d out of range for %d nodes",
				tr.At, tr.Src, nw.n)
		}
		if tr.Bps != 0 {
			if tr.Bps < 0 {
				return fmt.Errorf("netsim: transition at %v: bandwidth %g B/s, want > 0", tr.At, tr.Bps)
			}
			if tr.Src != -1 {
				if tr.Src < 0 || tr.Src >= nw.n || tr.Dst < 0 || tr.Dst >= nw.n {
					return fmt.Errorf("netsim: transition at %v: link %d->%d out of range for %d nodes",
						tr.At, tr.Src, tr.Dst, nw.n)
				}
			}
		}
		if tr.Loss >= 1 {
			return fmt.Errorf("netsim: transition at %v: loss rate %g, want [0, 1)", tr.At, tr.Loss)
		}
	}
	nw.timeline = sorted
	nw.cursor = 0
	return nil
}

// advance applies every programmed transition whose time has come. It is
// called from the transfer paths, so link state is always current when a
// transfer cost is computed — without fault events ever entering the
// simulation queue.
func (nw *Network) advance() {
	for nw.cursor < len(nw.timeline) && nw.timeline[nw.cursor].At <= nw.eng.Now() {
		tr := nw.timeline[nw.cursor]
		nw.cursor++
		if tr.Bps > 0 {
			if tr.Src == -1 {
				for i := range nw.bps {
					for j := range nw.bps[i] {
						nw.bps[i][j] = tr.Bps
					}
				}
			} else {
				nw.bps[tr.Src][tr.Dst] = tr.Bps
			}
		}
		if tr.Loss >= 0 {
			nw.loss = tr.Loss
		}
		if tr.Member != MemberNone {
			nw.active[tr.Src] = tr.Member == MemberJoin
		}
	}
}

// Stats returns the accumulated fault statistics.
func (nw *Network) Stats() FaultStats { return nw.stats }

// Idle advances the network's clock to t (a no-op if the clock is
// already past it), applying any fault transitions crossed on the way.
// Callers that embed the network in a larger simulated timeline — where
// compute happens between collectives — use it to keep link-fault
// windows aligned with the embedding clock.
func (nw *Network) Idle(t time.Duration) {
	if t > nw.eng.Now() {
		nw.eng.RunUntil(t)
	}
	nw.advance()
}

// send transmits bytes from src to dst: the message serializes on src's
// egress link for its per-message overhead plus transfer time (the LogP
// sender-side o+L cost), and done fires at arrival. Under a non-zero loss
// rate the arrival may instead be a drop, in which case the message is
// retransmitted after a backed-off timeout; exhausting the attempt budget
// records a *DeliveryError and abandons the message (the collective then
// stalls and its run reports the error).
func (nw *Network) send(src, dst int, bytes int64, done func()) {
	if src == dst {
		panic("netsim: self-send")
	}
	nw.transmit(src, dst, bytes, 1, done)
}

func (nw *Network) transmit(src, dst int, bytes int64, attempt int, done func()) {
	nw.advance()
	if !nw.active[src] || !nw.active[dst] {
		nw.memberFail(src, dst, attempt)
		return
	}
	xfer := time.Duration(float64(bytes) / nw.bps[src][dst] * float64(time.Second))
	nw.stats.Sent++
	nw.egress[src].Submit("msg", nw.eng.Now(), nw.alpha+xfer, func(sp sim.Span) {
		nw.advance()
		// An in-flight message to a rank that departed while it was on
		// the wire fails fast — it is never delivered or retried.
		if !nw.active[dst] {
			nw.stats.WastedBytes += bytes
			nw.memberFail(src, dst, attempt)
			return
		}
		if nw.loss > 0 && nw.rng.Float64() < nw.loss {
			nw.stats.Dropped++
			nw.stats.WastedBytes += bytes
			if attempt >= nw.rec.MaxAttempts {
				nw.stats.Abandoned++
				if nw.firstErr == nil {
					nw.firstErr = &DeliveryError{Src: src, Dst: dst, Attempts: attempt}
				}
				return
			}
			nw.stats.Retransmits++
			nw.eng.After(nw.rec.rto(attempt), func() {
				nw.transmit(src, dst, bytes, attempt+1, done)
			})
			return
		}
		nw.stats.DeliveredBytes += bytes
		done()
	})
}

// memberFail records a fail-fast delivery failure against a departed
// member: a *DeliveryError wrapping the *MemberGoneError, so both are
// reachable with errors.As through any outer wrap chain.
func (nw *Network) memberFail(src, dst, attempt int) {
	gone := dst
	if !nw.active[src] {
		gone = src
	}
	nw.stats.MemberFailures++
	if nw.firstErr == nil {
		nw.firstErr = &DeliveryError{
			Src: src, Dst: dst, Attempts: attempt,
			Cause: &MemberGoneError{Node: gone, At: nw.eng.Now()},
		}
	}
}

// run drains the event queue and returns the elapsed virtual time of the
// operation (the clock is persistent across collectives on one Network).
// With a deadline armed, events past it are discarded and a
// *DeadlineError returned; a message that exhausted retransmissions
// surfaces as a *DeliveryError.
func (nw *Network) run() (time.Duration, error) {
	start := nw.eng.Now()
	if nw.deadlineAt >= 0 {
		nw.eng.RunBefore(nw.deadlineAt)
		if p := nw.eng.Pending(); p > 0 {
			nw.eng.Clear()
			nw.firstErr = nil
			return nw.eng.Now() - start, &DeadlineError{
				Deadline: nw.deadlineAt, Elapsed: nw.eng.Now() - start, Pending: p,
			}
		}
	} else {
		nw.eng.Run()
	}
	err := nw.firstErr
	nw.firstErr = nil
	return nw.eng.Now() - start, err
}

// Reset clears the egress link histories so one Network can host several
// independently measured collectives.
func (nw *Network) Reset() {
	for _, e := range nw.egress {
		e.Reset()
	}
}

// LinkStat summarizes one node's egress link after a collective run.
type LinkStat struct {
	Node     int
	Messages int
	// Busy is the accumulated serialization time on the link; Makespan
	// is the collective's finish time; Utilization is their ratio.
	Busy        time.Duration
	Makespan    time.Duration
	Utilization float64
	// MaxQueueWait is the longest any message waited behind earlier
	// traffic on this link.
	MaxQueueWait time.Duration
}

// LinkStats derives per-node egress statistics from the resource spans of
// the collective(s) run so far — the message-level link-utilization view
// the closed-form α–β models cannot provide.
func (nw *Network) LinkStats() []LinkStat {
	makespan := nw.eng.Now()
	stats := make([]LinkStat, nw.n)
	for i, e := range nw.egress {
		st := LinkStat{Node: i, Busy: e.Busy(), Makespan: makespan}
		for _, sp := range e.Spans() {
			st.Messages++
			if q := sp.Queued(); q > st.MaxQueueWait {
				st.MaxQueueWait = q
			}
		}
		if makespan > 0 {
			st.Utilization = float64(st.Busy) / float64(makespan)
		}
		stats[i] = st
	}
	return stats
}

// Observe exports the network's link telemetry: one span per transmitted
// message into tr (rank = node, device "nic", classified as phase), and
// utilization gauges plus a queue-wait histogram into mx. Either sink may
// be nil.
func (nw *Network) Observe(tr *obs.Trace, mx *obs.Metrics, phase obs.Phase) {
	if tr.Enabled() {
		for node, e := range nw.egress {
			for i, sp := range e.Spans() {
				tr.Record(obs.Span{
					Rank: node, Device: "nic", Phase: phase,
					Name:  fmt.Sprintf("msg%d", i),
					Ready: sp.Ready, Start: sp.Start, End: sp.End,
				})
			}
		}
	}
	if mx != nil {
		var worst, sum float64
		for _, st := range nw.LinkStats() {
			sum += st.Utilization
			if st.Utilization > worst {
				worst = st.Utilization
			}
			mx.Histogram("netsim.queue_wait_us").Observe(float64(st.MaxQueueWait.Microseconds()))
			mx.Counter("netsim.messages").Add(int64(st.Messages))
		}
		mx.Gauge("netsim.link_utilization.max").Set(worst)
		mx.Gauge("netsim.link_utilization.mean").Set(sum / float64(nw.n))
		mx.Gauge("netsim.makespan_us").Set(float64(nw.eng.Now().Microseconds()))
	}
}

// RingAllreduce simulates a ring allreduce of a bytes-sized tensor:
// 2(n-1) rounds in which every node forwards a 1/n chunk to its
// successor, each round gated on the previous round's arrival.
func (nw *Network) RingAllreduce(bytes int64) (time.Duration, error) {
	return nw.ring(2*(nw.n-1), bytes/int64(nw.n))
}

// RingAllgather simulates a ring allgather where every node contributes
// contrib bytes: n-1 rounds of full-contribution forwards.
func (nw *Network) RingAllgather(contrib int64) (time.Duration, error) {
	return nw.ring(nw.n-1, contrib)
}

// RingReduceScatter simulates the first half of the ring allreduce.
func (nw *Network) RingReduceScatter(bytes int64) (time.Duration, error) {
	return nw.ring(nw.n-1, bytes/int64(nw.n))
}

func (nw *Network) ring(steps int, chunk int64) (time.Duration, error) {
	if nw.n == 1 || steps == 0 {
		return 0, nil
	}
	var trySend func(i, step int)
	trySend = func(i, step int) {
		next := (i + 1) % nw.n
		nw.send(i, next, chunk, func() {
			// Arrival of round `step` at `next` gates its round
			// step+1 send.
			if step+1 < steps {
				trySend(next, step+1)
			}
		})
	}
	for i := 0; i < nw.n; i++ {
		trySend(i, 0)
	}
	return nw.run()
}

// Alltoall simulates a pairwise exchange: every node sends a contrib/n
// slice to each of the other nodes, serialized on its egress link.
func (nw *Network) Alltoall(contrib int64) (time.Duration, error) {
	if nw.n == 1 {
		return 0, nil
	}
	slice := contrib / int64(nw.n)
	for i := 0; i < nw.n; i++ {
		for off := 1; off < nw.n; off++ {
			nw.send(i, (i+off)%nw.n, slice, func() {})
		}
	}
	return nw.run()
}

// HierarchicalAllreduce simulates the three-phase hierarchical gradient
// synchronization of Figure 1 at message level: a ring reduce-scatter
// among the k GPUs of each machine, a ring allreduce of the machine
// aggregate among the N machines, and a ring allgather within each
// machine — phases serialized, machines symmetric. alpha applies to every
// message. The phase networks are fresh and fault-free, so the phase runs
// cannot fail.
func HierarchicalAllreduce(k, n int, intraBps, interBps float64, alpha time.Duration, bytes int64) time.Duration {
	var total time.Duration
	if k > 1 {
		intra := MustNew(k, alpha, intraBps)
		d, _ := intra.RingReduceScatter(bytes)
		total += d
	}
	if n > 1 {
		// The k lanes share the NIC; their aggregate equals one
		// machine-level allreduce of the full tensor.
		inter := MustNew(n, alpha, interBps)
		d, _ := inter.RingAllreduce(bytes)
		total += d
	}
	if k > 1 {
		intra := MustNew(k, alpha, intraBps)
		d, _ := intra.RingAllgather(bytes / int64(k))
		total += d
	}
	return total
}

// TreeBroadcast simulates a binomial-tree broadcast of bytes from node 0.
func (nw *Network) TreeBroadcast(bytes int64) (time.Duration, error) {
	if nw.n == 1 {
		return 0, nil
	}
	top := 1
	for top*2 < nw.n {
		top *= 2
	}
	var expand func(r, dist int)
	expand = func(r, dist int) {
		for d := dist; d >= 1; d /= 2 {
			if r+d < nw.n {
				d := d
				nw.send(r, r+d, bytes, func() {
					expand(r+d, d/2)
				})
			}
		}
	}
	expand(0, top)
	return nw.run()
}
