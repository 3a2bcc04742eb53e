package ddl

import (
	"fmt"
	"sort"

	"espresso/internal/collective"
	"espresso/internal/compress"
	"espresso/internal/strategy"
)

// commStep executes one collective routine for one communication group.
func (x *Executor) commStep(st strategy.Step, states []nodeState, group []int) error {
	if st.Compressed {
		return x.commCompressed(st, states, group)
	}
	return x.commDense(st, states, group)
}

// account attributes wire bytes to the step's communication domain,
// split by payload kind (dense FP32 vs encoded compressed bytes).
func (x *Executor) account(sc strategy.Scope, bytes int64, compressed bool) {
	domain := &x.traffic.Inter
	name := "wire.inter."
	if sc == strategy.Intra {
		domain = &x.traffic.Intra
		name = "wire.intra."
	}
	kind := "raw_bytes"
	if compressed {
		domain.CompressedBytes += bytes
		kind = "compressed_bytes"
	} else {
		domain.RawBytes += bytes
	}
	if x.Metrics != nil {
		x.Metrics.Counter(name + kind).Add(bytes)
	}
}

// denseBytes is the FP32 size of a member's current region.
func denseBytes(states []nodeState, g int) int64 {
	return 4 * int64(states[g].hi-states[g].lo)
}

// payloadBytes is the exact encoded size of a member's payload list
// (WireBytes equals the encoder's output byte-for-byte).
func (x *Executor) payloadBytes(states []nodeState, g int) int64 {
	var total int64
	for _, p := range states[g].payloads {
		total += int64(x.comp.WireBytes(p.N))
	}
	return total
}

// activeMembers returns the group members currently holding data.
func activeMembers(states []nodeState, group []int) []int {
	var act []int
	for _, g := range group {
		if states[g].active {
			act = append(act, g)
		}
	}
	return act
}

// sameRegion verifies every listed member holds the same dense region.
func sameRegion(states []nodeState, members []int) (lo, hi int, err error) {
	if len(members) == 0 {
		return 0, 0, fmt.Errorf("no active members")
	}
	lo, hi = states[members[0]].lo, states[members[0]].hi
	for _, g := range members[1:] {
		if states[g].lo != lo || states[g].hi != hi {
			return 0, 0, fmt.Errorf("member regions differ: [%d,%d) vs [%d,%d)",
				states[g].lo, states[g].hi, lo, hi)
		}
	}
	return lo, hi, nil
}

func (x *Executor) commDense(st strategy.Step, states []nodeState, group []int) error {
	act := activeMembers(states, group)
	n := int64(len(act))
	switch st.Routine {
	case strategy.Allreduce:
		if _, _, err := sameRegion(states, act); err != nil {
			return err
		}
		// Ring allreduce: every member transmits 2(n-1)/n of its region.
		if n > 1 {
			x.account(st.Scope, 2*(n-1)*denseBytes(states, act[0]), false)
		}
		data := make([][]float32, len(act))
		for i, g := range act {
			data[i] = states[g].dense()
		}
		return collective.Allreduce(data)

	case strategy.ReduceScatter:
		lo, _, err := sameRegion(states, act)
		if err != nil {
			return err
		}
		if n > 1 {
			x.account(st.Scope, (n-1)*denseBytes(states, act[0]), false)
		}
		data := make([][]float32, len(act))
		for i, g := range act {
			data[i] = states[g].dense()
		}
		bounds, err := collective.ReduceScatter(data)
		if err != nil {
			return err
		}
		// Node i's reduced chunk is already where its shard lives.
		for i, g := range act {
			states[g].lo, states[g].hi = lo+bounds[i], lo+bounds[i+1]
		}
		return nil

	case strategy.Reduce:
		if _, _, err := sameRegion(states, act); err != nil {
			return err
		}
		if n > 1 {
			x.account(st.Scope, (n-1)*denseBytes(states, act[0]), false)
		}
		data := make([][]float32, len(act))
		for i, g := range act {
			data[i] = states[g].dense()
		}
		if err := collective.Reduce(data, 0); err != nil {
			return err
		}
		for i, g := range act {
			if i == 0 {
				continue
			}
			states[g].active = false
		}
		return nil

	case strategy.Allgather:
		// Second step of a divisible scheme: members hold distinct
		// aggregated shards; everyone ends with their union. Each
		// shard is forwarded around the ring n-1 times.
		var shards int64
		for _, g := range act {
			shards += denseBytes(states, g)
		}
		x.account(st.Scope, int64(len(group)-1)*shards, false)
		return gatherRegions(states, group, act)

	case strategy.Broadcast:
		if len(act) != 1 {
			return fmt.Errorf("broadcast expects one holder, found %d", len(act))
		}
		src := &states[act[0]]
		x.account(st.Scope, int64(len(group)-1)*denseBytes(states, act[0]), false)
		for _, g := range group {
			if g == act[0] {
				continue
			}
			s := &states[g]
			s.active = true
			s.lo, s.hi = src.lo, src.hi
			copy(s.dense(), src.dense())
			s.compressed = false
			s.payloads = nil
		}
		return nil

	default:
		return fmt.Errorf("dense %v not supported", st.Routine)
	}
}

// gatherRegions implements the uncompressed second-step allgather: every
// group member receives the concatenation of the active members' regions,
// each copied into the same place of the receiver's own buffer.
func gatherRegions(states []nodeState, group, act []int) error {
	if len(act) == 0 {
		return fmt.Errorf("allgather with no active members")
	}
	sorted := append([]int(nil), act...)
	sort.Slice(sorted, func(a, b int) bool { return states[sorted[a]].lo < states[sorted[b]].lo })
	lo := states[sorted[0]].lo
	hi := states[sorted[len(sorted)-1]].hi
	expect := lo
	for _, g := range sorted {
		if states[g].lo != expect {
			return fmt.Errorf("allgather regions not contiguous: next at %d, expected %d", states[g].lo, expect)
		}
		expect = states[g].hi
	}
	if expect != hi {
		return fmt.Errorf("allgather regions do not cover [%d,%d)", lo, hi)
	}
	// A receiver is written only outside the shard it contributes, so
	// the shards can be read while the copies are in progress.
	for _, g := range group {
		for _, src := range sorted {
			if src != g {
				copy(states[g].buf[states[src].lo:], states[src].dense())
			}
		}
	}
	for _, g := range group {
		s := &states[g]
		s.active = true
		s.lo, s.hi = lo, hi
		s.compressed = false
		s.payloads = nil
	}
	return nil
}

func (x *Executor) commCompressed(st strategy.Step, states []nodeState, group []int) error {
	act := activeMembers(states, group)
	for _, g := range act {
		if !states[g].compressed {
			return fmt.Errorf("GPU %d holds dense data in a compressed step", g)
		}
	}
	// Everything a compressed step communicates crosses the wire codec
	// first (a no-op without fault injection configured).
	if err := x.transmitStates(states, act); err != nil {
		return err
	}
	switch st.Routine {
	case strategy.Allgather:
		if st.Second {
			// Region gather: union of distinct compressed shards;
			// every shard's payloads travel the whole ring.
			var shards int64
			for _, g := range act {
				shards += x.payloadBytes(states, g)
			}
			x.account(st.Scope, int64(len(group)-1)*shards, true)
			return gatherPayloadRegions(states, group, act)
		}
		// Indivisible: same-region payload lists concatenated. Each
		// member's payload set travels the whole ring.
		if _, _, err := sameRegion(states, act); err != nil {
			return err
		}
		var contrib int64
		for _, g := range act {
			contrib += x.payloadBytes(states, g)
		}
		x.account(st.Scope, int64(len(group)-1)*contrib, true)
		lists := make([][]*compress.Payload, len(act))
		for i, g := range act {
			lists[i] = states[g].payloads
		}
		out := collective.AllgatherPayloads(lists)
		for i, g := range act {
			states[g].payloads = out[i]
		}
		// Inactive group members receive everything too (an
		// allgather reaches the whole group).
		for _, g := range group {
			s := &states[g]
			if !s.active {
				s.active = true
				s.compressed = true
				s.lo, s.hi = states[act[0]].lo, states[act[0]].hi
				s.payloads = append([]*compress.Payload(nil), out[0]...)
			}
		}
		return nil

	case strategy.Alltoall:
		lo, hi, err := sameRegion(states, act)
		if err != nil {
			return err
		}
		// Each member keeps its own 1/n slice and sends the rest.
		var contrib int64
		for _, g := range act {
			contrib += x.payloadBytes(states, g)
		}
		if n := int64(len(act)); n > 1 {
			x.account(st.Scope, (n-1)*contrib/n, true)
		}
		lists := make([][]*compress.Payload, len(act))
		for i, g := range act {
			lists[i] = states[g].payloads
		}
		out, bounds, err := collective.AlltoallPayloads(lists, lo, hi)
		if err != nil {
			return err
		}
		for i, g := range act {
			s := &states[g]
			s.payloads = out[i]
			s.lo = lo + bounds[i]
			s.hi = lo + bounds[i+1]
		}
		return nil

	case strategy.Gather:
		if _, _, err := sameRegion(states, act); err != nil {
			return err
		}
		// The root receives every other member's payloads.
		for _, g := range act[1:] {
			x.account(st.Scope, x.payloadBytes(states, g), true)
		}
		lists := make([][]*compress.Payload, len(act))
		for i, g := range act {
			lists[i] = states[g].payloads
		}
		out := collective.GatherPayloads(lists, 0)
		for i, g := range act {
			s := &states[g]
			s.payloads = out[i]
			if i != 0 {
				s.active = false
			}
		}
		return nil

	case strategy.Broadcast:
		if len(act) != 1 {
			return fmt.Errorf("compressed broadcast expects one holder, found %d", len(act))
		}
		x.account(st.Scope, int64(len(group)-1)*x.payloadBytes(states, act[0]), true)
		src := &states[act[0]]
		for _, g := range group {
			if g == act[0] {
				continue
			}
			s := &states[g]
			s.active = true
			s.compressed = true
			s.lo, s.hi = src.lo, src.hi
			s.payloads = append([]*compress.Payload(nil), src.payloads...)
		}
		return nil

	default:
		return fmt.Errorf("compressed %v not supported", st.Routine)
	}
}

// gatherPayloadRegions gives every group member the union of the active
// members' compressed shards.
func gatherPayloadRegions(states []nodeState, group, act []int) error {
	if len(act) == 0 {
		return fmt.Errorf("allgather with no active members")
	}
	lo, hi := states[act[0]].lo, states[act[0]].hi
	var union []*compress.Payload
	sorted := append([]int(nil), act...)
	sort.Slice(sorted, func(a, b int) bool { return states[sorted[a]].lo < states[sorted[b]].lo })
	for _, g := range sorted {
		s := &states[g]
		if s.lo < lo {
			lo = s.lo
		}
		if s.hi > hi {
			hi = s.hi
		}
		union = append(union, s.payloads...)
	}
	for _, g := range group {
		s := &states[g]
		s.active = true
		s.compressed = true
		s.lo, s.hi = lo, hi
		s.payloads = append([]*compress.Payload(nil), union...)
	}
	return nil
}
