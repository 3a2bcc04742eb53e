package strategy

import (
	"fmt"
	"sync"

	"espresso/internal/cluster"
	"espresso/internal/cost"
)

// The enumerator walks the decision tree of Figure 8. Helper naming
// follows the paper's sub-trees: T1/T2 are the second intra-machine step
// with uncompressed/compressed input, T3/T4 are the inter-machine phase
// with uncompressed/compressed input, T5 is the second inter-machine
// step with uncompressed input.

// pairClass tracks the third pruning rule: the first and second steps of
// a divisible scheme must pair — Reduce-scatter and Alltoall pair with
// Allgather, Reduce and Gather pair with Broadcast.
type pairClass uint8

const (
	classAllgather pairClass = iota
	classBroadcast
)

func (p pairClass) second() Routine {
	if p == classBroadcast {
		return Broadcast
	}
	return Allgather
}

func classOf(first Routine) pairClass {
	if first == Reduce || first == Gather {
		return classBroadcast
	}
	return classAllgather
}

func comm(r Routine, sc Scope, compressed bool) Step {
	return Step{Act: Comm, Routine: r, Scope: sc, Compressed: compressed}
}

// comm2 marks the second operation of a divisible scheme.
func comm2(r Routine, sc Scope, compressed bool) Step {
	return Step{Act: Comm, Routine: r, Scope: sc, Compressed: compressed, Second: true}
}

func comp() Step   { return Step{Act: Comp} }
func decomp() Step { return Step{Act: Decomp} }

func cat(prefix []Step, more ...Step) []Step {
	out := make([]Step, 0, len(prefix)+len(more))
	out = append(out, prefix...)
	return append(out, more...)
}

// shapeCache memoizes EnumerateGPU: the shape set depends only on
// whether the cluster has both communication domains, so there are
// exactly two possible results. NewSelector enumerates per selection —
// on the serving path that is once per request — and the walk's
// dedupe-by-Key strings dominated its cost.
var shapeCache struct {
	sync.Mutex
	hier, flat []Option
}

// EnumerateGPU returns the GPU-only option set C_gpu that Algorithm 1
// searches before CPU offloading: every distinct option shape for the
// cluster (the uncompressed ones included), with all compression devices
// left at the zero value (GPU). Dimension 2 (device choice) is expanded
// separately by Enumerate. Options are immutable by convention (step
// slices are shared); callers get a fresh outer slice over shared step
// storage.
func EnumerateGPU(c *cluster.Cluster) []Option {
	hier := c.Machines > 1 && c.GPUsPerMachine > 1
	shapeCache.Lock()
	cached := shapeCache.flat
	if hier {
		cached = shapeCache.hier
	}
	if cached == nil {
		cached = enumerateShapes(c)
		if hier {
			shapeCache.hier = cached
		} else {
			shapeCache.flat = cached
		}
	}
	shapeCache.Unlock()
	out := make([]Option, len(cached))
	copy(out, cached)
	return out
}

func enumerateShapes(c *cluster.Cluster) []Option {
	var out []Option
	emit := func(hier bool, steps []Step) {
		out = append(out, Option{Hier: hier, Steps: steps})
	}

	// --- Flat communication (single phase over all GPUs) ---
	// Uncompressed: indivisible allreduce, or either divisible pair.
	emit(false, []Step{comm(Allreduce, Flat, false)})
	emit(false, []Step{comm(ReduceScatter, Flat, false), comm2(Allgather, Flat, false)})
	emit(false, []Step{comm(Reduce, Flat, false), comm2(Broadcast, Flat, false)})
	// Compressed indivisible: comp, allgather of compressed, decomp.
	emit(false, []Step{comp(), comm(Allgather, Flat, true), decomp()})
	// Compressed divisible: comp, first step, decomp+aggregate, then
	// either recompress for the second step or skip recompression
	// (footnote 2 of §3.1).
	for _, first := range []Routine{Alltoall, Gather} {
		cls := classOf(first)
		emit(false, []Step{
			comp(), comm(first, Flat, true), decomp(),
			comp(), comm2(cls.second(), Flat, true), decomp(),
		})
		emit(false, []Step{
			comp(), comm(first, Flat, true), decomp(),
			comm2(cls.second(), Flat, false),
		})
	}

	// --- Hierarchical communication ---
	// Only meaningful when both domains exist.
	if c.Machines > 1 && c.GPUsPerMachine > 1 {
		for _, o := range enumerateHier() {
			emit(true, o)
		}
	}
	return dedupe(out)
}

// enumerateHier composes the first intra-machine step, the inter-machine
// phase (sub-trees T3/T4/T5), and the second intra-machine step (T1/T2).
func enumerateHier() [][]Step {
	var out [][]Step

	type intra1 struct {
		steps []Step
		cls   pairClass
	}
	// Dimension 4 fixes intra-machine communication to divisible
	// schemes (§4.2.1); the first step is uncompressed reduce-scatter /
	// reduce, or a compressed alltoall / gather round.
	intra1s := []intra1{
		{steps: []Step{comm(ReduceScatter, Intra, false)}, cls: classAllgather},
		{steps: []Step{comm(Reduce, Intra, false)}, cls: classBroadcast},
		{steps: []Step{comp(), comm(Alltoall, Intra, true), decomp()}, cls: classAllgather},
		{steps: []Step{comp(), comm(Gather, Intra, true), decomp()}, cls: classBroadcast},
	}

	type inter struct {
		steps         []Step
		compressedOut bool
	}
	// The inter-machine phase always starts from uncompressed input
	// (any compressed intra1 round ends with a decompression).
	inters := []inter{
		// T3, no compression: indivisible or divisible uncompressed.
		{steps: []Step{comm(Allreduce, Inter, false)}},
		{steps: []Step{comm(ReduceScatter, Inter, false), comm2(Allgather, Inter, false)}},
		{steps: []Step{comm(Reduce, Inter, false), comm2(Broadcast, Inter, false)}},
		// T3 divisible first step, then T5 compresses the second step.
		{steps: []Step{comm(ReduceScatter, Inter, false), comp(), comm2(Allgather, Inter, true)}, compressedOut: true},
		{steps: []Step{comm(Reduce, Inter, false), comp(), comm2(Broadcast, Inter, true)}, compressedOut: true},
		// T4 indivisible: compressed allgather.
		{steps: []Step{comp(), comm(Allgather, Inter, true)}, compressedOut: true},
	}
	// T4 divisible: compressed first step, decompress+aggregate, then
	// recompress the second step or send it uncompressed.
	for _, first := range []Routine{Alltoall, Gather} {
		cls := classOf(first)
		inters = append(inters,
			inter{steps: []Step{
				comp(), comm(first, Inter, true), decomp(),
				comp(), comm2(cls.second(), Inter, true),
			}, compressedOut: true},
			inter{steps: []Step{
				comp(), comm(first, Inter, true), decomp(),
				comm2(cls.second(), Inter, false),
			}},
		)
	}

	for _, i1 := range intra1s {
		for _, iv := range inters {
			base := cat(i1.steps, iv.steps...)
			if iv.compressedOut {
				// T2: second intra step with compressed input —
				// forward the compressed payloads intra-machine then
				// decompress everywhere, or decompress at the shard
				// owner first and forward dense.
				out = append(out,
					cat(base, comm2(i1.cls.second(), Intra, true), decomp()),
					cat(base, decomp(), comm2(i1.cls.second(), Intra, false)),
				)
			} else {
				// T1: second intra step with uncompressed input —
				// plain, or a final compressed round trip.
				out = append(out,
					cat(base, comm2(i1.cls.second(), Intra, false)),
					cat(base, comp(), comm2(i1.cls.second(), Intra, true), decomp()),
				)
			}
		}
	}
	return out
}

// Enumerate expands EnumerateGPU across Dimension 2: every Comp and
// Decomp step independently runs on GPU or CPU. This is the full option
// set C whose size §4.4.1 reports.
func Enumerate(c *cluster.Cluster) []Option {
	var out []Option
	for _, shape := range EnumerateGPU(c) {
		idxs := compIdxs(shape)
		if len(idxs) == 0 {
			out = append(out, shape)
			continue
		}
		for mask := 0; mask < 1<<len(idxs); mask++ {
			steps := append([]Step(nil), shape.Steps...)
			for b, i := range idxs {
				if mask&(1<<b) != 0 {
					steps[i].Dev = cost.CPU
				}
			}
			out = append(out, Option{Hier: shape.Hier, Steps: steps})
		}
	}
	return out
}

func compIdxs(o Option) []int {
	var idxs []int
	for i, s := range o.Steps {
		if s.Act != Comm {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func dedupe(opts []Option) []Option {
	seen := make(map[string]bool, len(opts))
	out := opts[:0]
	for _, o := range opts {
		k := o.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, o)
		}
	}
	return out
}

// Check verifies the structural invariants of an option: scopes appear in
// a legal order for the communication pattern, compression state is
// consistent (compressed comm only after Comp, Decomp only when holding a
// compressed payload), divisible steps pair per the third pruning rule,
// and the option ends with an uncompressed, fully synchronized tensor.
func Check(o Option, c *cluster.Cluster) error {
	if len(o.Steps) == 0 {
		return fmt.Errorf("strategy: empty option")
	}
	compressed := false
	// First-routine tracking per scope, indexed by Scope — the decision
	// loop re-validates options via SetOption tens of thousands of times
	// per selection, so this must not allocate (a map here was a
	// measurable share of the probe loop's garbage).
	var firstRoutine [3]Routine
	var firstSeen [3]bool
	for i, s := range o.Steps {
		switch s.Act {
		case Comp:
			if compressed {
				return fmt.Errorf("strategy: step %d compresses an already compressed payload", i)
			}
			compressed = true
		case Decomp:
			if !compressed {
				return fmt.Errorf("strategy: step %d decompresses an uncompressed payload", i)
			}
			compressed = false
		case Comm:
			if s.Compressed != compressed {
				return fmt.Errorf("strategy: step %d payload compression mismatch", i)
			}
			if o.Hier && s.Scope == Flat || !o.Hier && s.Scope != Flat {
				return fmt.Errorf("strategy: step %d scope %v inconsistent with hier=%v", i, s.Scope, o.Hier)
			}
			switch s.Routine {
			case Allreduce:
				if s.Compressed {
					return fmt.Errorf("strategy: step %d allreduce of compressed payload (aggregation is not associative)", i)
				}
			case ReduceScatter, Reduce, Alltoall, Gather:
				if s.Second {
					return fmt.Errorf("strategy: step %d routine %v cannot be a second step", i, s.Routine)
				}
				firstRoutine[s.Scope] = s.Routine
				firstSeen[s.Scope] = true
			case Allgather, Broadcast:
				if s.Routine == Allgather && !s.Second && !s.Compressed {
					return fmt.Errorf("strategy: step %d uncompressed indivisible allgather (use allreduce)", i)
				}
				if s.Routine == Broadcast && !s.Second {
					return fmt.Errorf("strategy: step %d broadcast outside a divisible scheme", i)
				}
				if s.Second && firstSeen[s.Scope] {
					if first := firstRoutine[s.Scope]; classOf(first).second() != s.Routine {
						return fmt.Errorf("strategy: step %d second routine %v does not pair with %v", i, s.Routine, first)
					}
				}
			}
		}
	}
	if compressed {
		return fmt.Errorf("strategy: option ends with a compressed payload")
	}
	return nil
}
