package timeline

import (
	"fmt"
	"time"

	"espresso/internal/cost"
	"espresso/internal/strategy"
)

// chainInto interprets a compression option for tensor idx into the sequence
// of resource jobs it induces, tracking how the payload evolves:
//
//   - perGPU: the fraction of the tensor each active GPU holds/processes;
//   - lanes: how many GPUs per machine actively hold data (k after a
//     reduce-scatter or alltoall, 1 after a reduce or gather) — the
//     machine's NIC carries lanes x the per-GPU payload during
//     inter-machine steps, and the shared host pool serves lanes x the
//     per-GPU work during CPU compression;
//   - copies: how many same-region compressed payloads are in flight
//     (an indivisible allgather multiplies copies; decompression folds
//     them back into one dense region).
//
// The jobs are appended to the (reusable) slice passed in.
func (e *Engine) chainInto(idx int, opt strategy.Option, jobs []jobSpec) ([]jobSpec, error) {
	if err := strategy.Check(opt, e.C); err != nil {
		return nil, fmt.Errorf("tensor %d: %w", idx, err)
	}
	S := e.M.Tensors[idx].Bytes()
	k := e.C.GPUsPerMachine
	N := e.C.Machines

	perGPU := 1.0
	lanes := k
	copies := 1

	add := func(res Resource, dur time.Duration, step int) {
		jobs = append(jobs, jobSpec{res: res, dur: dur, step: step})
	}

	dense := func() int64 { return int64(perGPU * float64(S)) }
	free := e.Cost.FreeCompression()

	for si, st := range opt.Steps {
		switch st.Act {
		case strategy.Comp:
			d := dense()
			if free {
				add(ResGPU, 0, si)
			} else if st.Dev == cost.CPU {
				add(ResStaging, e.Cost.StagingTime(d), si)
				add(ResCPU, e.Cost.CompressTime(cost.CPU, d*int64(lanes)), si)
			} else {
				add(ResGPU, e.Cost.CompressTime(cost.GPU, d), si)
			}
			copies = 1

		case strategy.Decomp:
			d := dense()
			if free {
				add(ResGPU, 0, si)
			} else if st.Dev == cost.CPU {
				add(ResCPU, e.Cost.DecompressTime(cost.CPU, d*int64(lanes), copies), si)
				add(ResStaging, e.Cost.StagingTime(d), si)
			} else {
				add(ResGPU, e.Cost.DecompressTime(cost.GPU, d, copies), si)
			}
			copies = 1

		case strategy.Comm:
			var n int
			var link cost.Link
			var res Resource
			interMult := int64(1)
			switch st.Scope {
			case strategy.Intra:
				n, link, res = k, e.Cost.Intra, ResIntra
			case strategy.Inter:
				n, link, res = N, e.Cost.Inter, ResInter
				interMult = int64(lanes)
			case strategy.Flat:
				n, link = N*k, e.Cost.Flat
				if N > 1 {
					res = ResInter
				} else {
					res = ResIntra
				}
			}
			d := dense()
			// arg is the byte argument handed to the α–β routine — the
			// same quantity CommSteps exposes so message-level replay
			// reproduces exactly what the closed form priced.
			var dur time.Duration
			var arg int64
			switch st.Routine {
			case strategy.Allreduce:
				arg = d * interMult
				dur = link.Allreduce(n, arg)

			case strategy.ReduceScatter:
				arg = d * interMult
				dur = link.ReduceScatter(n, arg)
				perGPU /= float64(n)

			case strategy.Allgather:
				if st.Compressed {
					arg = e.Cost.WireBytes(d) * int64(copies) * interMult
					dur = link.Allgather(n, arg)
					if st.Second {
						perGPU *= float64(n) // gathering distinct shards
					} else {
						copies *= n // gathering same-region payloads
					}
				} else {
					arg = d * interMult
					dur = link.Allgather(n, arg)
					perGPU *= float64(n)
				}
				if st.Scope == strategy.Intra && st.Second {
					lanes = k
				}

			case strategy.Alltoall:
				arg = e.Cost.WireBytes(d) * int64(copies) * interMult
				dur = link.Alltoall(n, arg)
				perGPU /= float64(n)
				copies = n

			case strategy.Reduce:
				arg = d * interMult
				dur = link.Reduce(n, arg)
				if st.Scope == strategy.Intra {
					lanes = 1
				}

			case strategy.Broadcast:
				if st.Compressed {
					arg = e.Cost.WireBytes(d) * int64(copies) * interMult
				} else {
					arg = d * interMult
				}
				dur = link.Broadcast(n, arg)
				if st.Scope == strategy.Intra {
					lanes = k
				}

			case strategy.Gather:
				arg = e.Cost.WireBytes(d) * int64(copies) * interMult
				dur = link.Gather(n, arg)
				copies *= n
				if st.Scope == strategy.Intra {
					lanes = 1
				}

			default:
				return nil, fmt.Errorf("tensor %d step %d: unhandled routine %v", idx, si, st.Routine)
			}
			if e.commSink != nil {
				*e.commSink = append(*e.commSink, CommStep{
					Scope: st.Scope, Routine: st.Routine, N: n, Bytes: arg,
					Compressed: st.Compressed, Second: st.Second,
				})
			}
			add(res, dur, si)
		}
	}
	return jobs, nil
}

// CommStep is one communication operation of a tensor's pipeline, with
// the exact byte argument the α–β cost model priced. The chaos runner
// replays an iteration's inter-machine steps message by message on a
// fault-injected netsim.Network using these records, so the replayed
// traffic is byte-identical to what the analytic engine assumed.
type CommStep struct {
	Scope   strategy.Scope
	Routine strategy.Routine
	// N is the participant count of the collective.
	N int
	// Bytes is the size argument of the cost model's routine: the full
	// reduced region for Allreduce/ReduceScatter/Reduce, the per-member
	// contribution for Allgather/Alltoall/Gather/Broadcast.
	Bytes int64
	// Compressed marks payloads in encoded wire form; Second marks the
	// second allgather of a two-phase scheme.
	Compressed bool
	Second     bool
}

// CommSteps returns the communication steps tensor idx performs under
// opt, in pipeline order.
func (e *Engine) CommSteps(idx int, opt strategy.Option) ([]CommStep, error) {
	var steps []CommStep
	e.commSink = &steps
	_, err := e.chainInto(idx, opt, nil)
	e.commSink = nil
	if err != nil {
		return nil, err
	}
	return steps, nil
}

// ChainSig is one element of a chain signature: the resource and
// µs-quantized duration of a job — chains that agree at that granularity
// are indistinguishable to any decision the scheduler makes at DDL
// timescales. Candidate deduplication compares signatures structurally
// because the greedy search re-derives them per tensor size per
// selection — string keys would put allocation and formatting on that
// path for no extra information.
type ChainSig struct {
	Res Resource
	Dur time.Duration
}

// AppendChainSig appends the signature of opt's chain for tensor idx to
// dst and returns the extended slice. Two options whose signatures are
// equal induce indistinguishable timelines (same resources, same
// durations at DDL timescales) and are interchangeable to the search.
// The derived chain lands in the engine's memo, so the SetOption probes
// that follow a dedup pass reuse it without re-deriving.
func (e *Engine) AppendChainSig(idx int, opt strategy.Option, dst []ChainSig) ([]ChainSig, error) {
	jobs, err := e.memoChain(idx, opt)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		dst = append(dst, ChainSig{Res: j.res, Dur: j.dur.Round(time.Microsecond)})
	}
	return dst, nil
}

// Times sums an option's chain for tensor idx into its pure communication
// time — the τ_comm of §3 — and its pure compression time (compression,
// decompression, staging) — τ_comp — with no queueing or overlap.
func (e *Engine) Times(idx int, opt strategy.Option) (comm, comp time.Duration, err error) {
	jobs, err := e.memoChain(idx, opt)
	if err != nil {
		return 0, 0, err
	}
	for _, j := range jobs {
		if j.res == ResIntra || j.res == ResInter {
			comm += j.dur
		} else {
			comp += j.dur // backward kernels never appear in a chain
		}
	}
	return comm, comp, nil
}
