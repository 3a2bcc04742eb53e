package chaos

import (
	"time"

	"espresso/internal/netsim"
)

// transitionsFor lowers the plan's link and membership faults into a
// netsim transition timeline for a network whose node i hosts global
// rank ranks[i] and whose healthy link bandwidth is base. Straggler
// and flap faults degrade to base*Scale and restore to base at
// their window boundaries; loss faults set and clear the loss rate;
// leave/join events become Member transitions, so a mid-iteration
// departure fails in-flight messages fast. Faults naming a rank absent
// from ranks are dropped (a departed rank's links do not exist on the
// survivors' network, and NewRunner has range-checked the plan against
// the full topology); global faults (src -1) and loss always apply.
// Overlapping faults on the same link resolve last-transition-wins
// (netsim applies transitions in time order).
func (p *Plan) transitionsFor(ranks []int, base float64) []netsim.Transition {
	node := make(map[int]int, len(ranks)) // global rank -> network index
	for i, r := range ranks {
		node[r] = i
	}
	// link maps a fault's rank-space endpoints onto network indices;
	// ok = false means an endpoint is unmapped and the fault is dropped.
	link := func(f *Fault, at time.Duration, bps float64) (netsim.Transition, bool) {
		if f.Src < 0 {
			return netsim.Transition{At: at, Src: -1, Dst: -1, Bps: bps, Loss: -1}, true
		}
		src, okS := node[f.Src]
		dst, okD := node[f.Dst]
		if !okS || !okD {
			return netsim.Transition{}, false
		}
		return netsim.Transition{At: at, Src: src, Dst: dst, Bps: bps, Loss: -1}, true
	}
	var ts []netsim.Transition
	for i := range p.Faults {
		f := &p.Faults[i]
		switch f.Kind {
		case Straggler:
			deg, ok := link(f, f.Start.D(), base*f.Scale)
			if !ok {
				continue
			}
			ts = append(ts, deg)
			if f.Duration > 0 {
				rst, _ := link(f, f.Start.D()+f.Duration.D(), base)
				ts = append(ts, rst)
			}
		case Flap:
			if _, ok := link(f, f.Start.D(), base); !ok {
				continue
			}
			end := f.Start.D() + f.Duration.D()
			degraded := false
			for at := f.Start.D(); at < end; at += f.Period.D() {
				bps := base * f.Scale
				if degraded {
					bps = base
				}
				degraded = !degraded
				tr, _ := link(f, at, bps)
				ts = append(ts, tr)
			}
			rst, _ := link(f, end, base)
			ts = append(ts, rst)
		case Loss:
			ts = append(ts, netsim.Transition{At: f.Start.D(), Src: -1, Dst: -1, Loss: f.Rate})
			if f.Duration > 0 {
				ts = append(ts, netsim.Transition{At: f.Start.D() + f.Duration.D(), Src: -1, Dst: -1, Loss: 0})
			}
		case Leave, Join:
			idx, ok := node[f.Rank]
			if !ok {
				continue
			}
			member := netsim.MemberLeave
			if f.Kind == Join {
				member = netsim.MemberJoin
			}
			ts = append(ts, netsim.Transition{At: f.Start.D(), Src: idx, Dst: idx, Loss: -1, Member: member})
		}
	}
	return ts
}
