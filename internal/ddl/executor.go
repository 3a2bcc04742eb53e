// Package ddl executes compression strategies on real gradient data: it
// is the run-time half of Espresso (Figure 6's "apply the compression
// strategy to the DDL framework"). For every tensor it walks the
// compression option's action tasks, moving genuine bytes between the
// simulated cluster's GPUs through the collective and compression
// libraries, with error feedback preserving convergence.
//
// The executor maintains one state per GPU: the dense region it holds, or
// the compressed payloads in flight. Executing any valid option ends with
// every GPU holding the full aggregated gradient.
//
// A result lives in the executor's recycled buffers: it is valid until
// the next SyncTensor on the same executor, which may overwrite it, and
// is never touched by a call on another executor. A caller that keeps
// results across calls clones them.
package ddl

import (
	"fmt"
	"slices"
	"sync"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/obs"
	"espresso/internal/par"
	"espresso/internal/strategy"
)

// Executor synchronizes tensors under compression options.
type Executor struct {
	C    *cluster.Cluster
	Spec compress.Spec

	// DisableErrorFeedback turns off the error-feedback mechanism on
	// the first compression of each tensor. Only the convergence
	// ablation uses it; production GC needs EF to preserve accuracy.
	DisableErrorFeedback bool

	// Metrics, when non-nil, receives wire-byte counters per domain and
	// payload kind plus a per-tensor compression-ratio histogram.
	Metrics *obs.Metrics

	// Wire, when non-nil, routes every compressed payload through the
	// encode/decode wire codec with optional fault injection and
	// bounded retransmission (see WireConfig).
	Wire *WireConfig

	comp compress.Compressor
	// ef holds per-GPU error-feedback state, keyed inside by tensor
	// name and region.
	ef []*compress.ErrorFeedback

	// payloadScratch holds one long-lived payload per GPU, recycled
	// through compress.CompressInto: by the time any Comp step runs,
	// every payload a previous Comp step produced (and every slice
	// derived from it) has been decompressed and dropped, so the
	// backing arrays are safe to reuse across steps and tensors.
	payloadScratch []*compress.Payload

	// results recycles the per-GPU result buffers (a *[][]float32, one
	// buffer per GPU): a call takes a set, returns it to the caller and
	// puts it back, so the next call on this executor may reuse it. A
	// pool rather than a field, like the kernels' scratch: an idle
	// executor holds no results once the collector has emptied it.
	results sync.Pool

	traffic Traffic

	// call is the SyncTensor in progress, which the per-GPU tasks read.
	// An executor is not safe for concurrent use (the payload scratch is
	// shared), so the call can live here and the tasks be method values
	// bound once, in NewExecutor: a step fans out without allocating.
	call                                   syncCall
	copyTask, compressTask, decompressTask func(worker, g int) error
}

// syncCall is the state of one SyncTensor call.
type syncCall struct {
	name    string
	grads   [][]float32
	out     [][]float32 // the recycled result buffers, one per GPU
	states  []nodeState
	seed    uint64
	useEF   bool // the compression in progress is the tensor's first
	workers int
}

// parallelGrain is the tensor length below which a call runs on the
// caller alone. BenchmarkSyncTensor on a 2-core box, DGC(0.01) on the
// 2x2 cluster, results in recycled buffers, fanned out ÷ caller alone:
// 0.97 at 2^11 and 0.99 at 2^12 elements per GPU (fan-out won 3 and 4
// of 6: a tie), 0.94 at 2^13 (won 11 of 16), then 0.83 and 0.76 at
// 2^14 and 2^15 (won 6 of 6 each); medians of interleaved runs.
// Communication steps always run on the caller: they stream memory, and
// giving each group of a 2x2 cluster its own core bought nothing. A var
// only so the benchmark can move it.
var parallelGrain = 1 << 13

// PhaseBytes splits one communication domain's wire bytes by payload
// kind: dense FP32 regions vs encoded compressed payloads.
type PhaseBytes struct {
	RawBytes        int64 `json:"raw_bytes"`
	CompressedBytes int64 `json:"compressed_bytes"`
}

// Total is the domain's combined wire bytes.
func (p PhaseBytes) Total() int64 { return p.RawBytes + p.CompressedBytes }

// Traffic accounts the wire bytes every GPU sent during synchronization,
// by communication domain and payload kind — measured from the actual
// payloads (encoded compressed bytes or dense FP32 bytes), so it
// validates the gradient-exchange savings claim on real data rather than
// on the cost models.
type Traffic struct {
	Intra PhaseBytes `json:"intra"`
	Inter PhaseBytes `json:"inter"`
}

// IntraBytes is the intra-machine total across payload kinds.
func (t Traffic) IntraBytes() int64 { return t.Intra.Total() }

// InterBytes is the inter-machine total across payload kinds.
func (t Traffic) InterBytes() int64 { return t.Inter.Total() }

// Total is the combined traffic.
func (t Traffic) Total() int64 { return t.Intra.Total() + t.Inter.Total() }

// Traffic returns the accumulated traffic counters.
func (x *Executor) Traffic() Traffic { return x.traffic }

// ResetTraffic clears the counters.
func (x *Executor) ResetTraffic() { x.traffic = Traffic{} }

// NewExecutor builds an executor for the cluster and GC algorithm.
func NewExecutor(c *cluster.Cluster, spec compress.Spec) (*Executor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	comp, err := compress.New(spec)
	if err != nil {
		return nil, err
	}
	ef := make([]*compress.ErrorFeedback, c.TotalGPUs())
	for i := range ef {
		ef[i] = compress.NewErrorFeedback(comp)
	}
	x := &Executor{C: c, Spec: spec, comp: comp, ef: ef}
	x.copyTask, x.compressTask, x.decompressTask = x.copyIn, x.compressGPU, x.decompressGPU
	return x, nil
}

// nodeState is one GPU's view of a tensor mid-synchronization. buf is the
// GPU's private full-length copy of the tensor, made once per SyncTensor
// in its recycled result buffer and returned as its result; whatever
// dense region [lo, hi) the GPU holds lives at buf[lo:hi], so
// scattering, gathering and decompressing move the bounds and never
// allocate.
type nodeState struct {
	active     bool
	lo, hi     int // dense element region currently held
	buf        []float32
	payloads   []*compress.Payload
	compressed bool
}

// dense is the region the GPU holds, valid while it is not compressed.
func (s *nodeState) dense() []float32 { return s.buf[s.lo:s.hi] }

// SyncTensor synchronizes one tensor: grads holds each GPU's local
// gradient (len TotalGPUs, equal lengths); the result holds each GPU's
// aggregated gradient after executing opt. seed varies randomized
// compression across iterations; name keys error-feedback state.
//
// The result is the executor's: it stays valid until the next SyncTensor
// on x, which may reuse its buffers, and calls on other executors never
// touch it. grads is only read.
//
// The GPUs run side by side: their copies, compressions and
// decompressions fan out over one worker per CPU, each step joining
// before the next; communication steps run on the caller. Results,
// error feedback, traffic and metrics are bit-identical whatever the
// worker count.
func (x *Executor) SyncTensor(name string, grads [][]float32, opt strategy.Option, seed uint64) ([][]float32, error) {
	if err := strategy.Check(opt, x.C); err != nil {
		return nil, err
	}
	total := x.C.TotalGPUs()
	if len(grads) != total {
		return nil, fmt.Errorf("ddl: %d gradients for %d GPUs", len(grads), total)
	}
	n := len(grads[0])
	for g := range grads {
		if len(grads[g]) != n {
			return nil, fmt.Errorf("ddl: GPU %d gradient has %d elements, GPU 0 has %d", g, len(grads[g]), n)
		}
	}
	res, _ := x.results.Get().(*[][]float32)
	if res == nil {
		res = &[][]float32{}
	}
	*res = slices.Grow((*res)[:0], total)[:total]
	defer x.results.Put(res)
	c := &x.call
	*c = syncCall{name: name, grads: grads, out: *res, states: slices.Grow(c.states[:0], total)[:total], seed: seed, workers: 1}
	defer x.endCall()
	if n >= parallelGrain {
		c.workers = par.Workers(0)
	}
	states := c.states
	_ = par.Each(total, c.workers, x.copyTask) // copyIn cannot fail

	firstComp := true
	for si, st := range opt.Steps {
		var err error
		switch st.Act {
		case strategy.Comp:
			err = x.compressStep(firstComp)
			firstComp = false
		case strategy.Decomp:
			err = par.Each(total, c.workers, x.decompressTask)
		case strategy.Comm:
			for _, group := range x.groups(st.Scope, states) {
				if err = x.commStep(st, states, group); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("ddl: %s step %d (%v): %w", name, si, st, err)
		}
	}

	for g := range states {
		s := &states[g]
		if !s.active || s.compressed || s.lo != 0 || s.hi != n {
			return nil, fmt.Errorf("ddl: %s: GPU %d ended active=%v compressed=%v region [%d,%d), want dense [0,%d)",
				name, g, s.active, s.compressed, s.lo, s.hi, n)
		}
	}
	return *res, nil
}

// endCall drops the finished call's references to the caller's and the
// result's buffers, keeping only the states' backing array.
func (x *Executor) endCall() {
	clear(x.call.states)
	x.call = syncCall{states: x.call.states[:0]}
}

// copyIn gives GPU g its private copy of its gradient, in its recycled
// result buffer (grown when the tensor outgrew it).
func (x *Executor) copyIn(_, g int) error {
	c := &x.call
	c.out[g] = append(c.out[g][:0], c.grads[g]...)
	c.states[g] = nodeState{active: true, hi: len(c.grads[g]), buf: c.out[g]}
	return nil
}

// groups partitions GPUs into the communication groups of a scope:
// machines for intra, per-lane machine sets for inter (only lanes holding
// data), and one global group for flat.
func (x *Executor) groups(sc strategy.Scope, states []nodeState) [][]int {
	N, k := x.C.Machines, x.C.GPUsPerMachine
	switch sc {
	case strategy.Intra:
		groups := make([][]int, N)
		for m := 0; m < N; m++ {
			g := make([]int, k)
			for j := 0; j < k; j++ {
				g[j] = m*k + j
			}
			groups[m] = g
		}
		return groups
	case strategy.Inter:
		var groups [][]int
		for j := 0; j < k; j++ {
			// All machines are symmetric: lane j participates when
			// any machine's lane j holds data.
			holds := false
			for m := 0; m < N; m++ {
				if states[m*k+j].active {
					holds = true
					break
				}
			}
			if !holds {
				continue
			}
			g := make([]int, N)
			for m := 0; m < N; m++ {
				g[m] = m*k + j
			}
			groups = append(groups, g)
		}
		return groups
	default: // Flat
		g := make([]int, len(states))
		for i := range g {
			g[i] = i
		}
		return [][]int{g}
	}
}

// compressStep compresses every active GPU's dense region; useEF
// applies error feedback (the tensor's first compression). The metrics
// are recorded afterwards, in GPU order, so they do not depend on how
// the compressions interleaved.
func (x *Executor) compressStep(useEF bool) error {
	states := x.call.states
	if x.payloadScratch == nil {
		x.payloadScratch = make([]*compress.Payload, len(states))
		for i := range x.payloadScratch {
			x.payloadScratch[i] = new(compress.Payload)
		}
	}
	x.call.useEF = useEF
	if err := par.Each(len(states), x.call.workers, x.compressTask); err != nil {
		return err
	}
	if x.Metrics == nil {
		return nil
	}
	for g := range states {
		s := &states[g]
		if !s.active {
			continue
		}
		dense := 4 * int64(s.hi-s.lo)
		wire := int64(x.comp.WireBytes(s.payloads[0].N))
		x.Metrics.Counter("compress.ops").Inc()
		x.Metrics.Counter("compress.dense_bytes").Add(dense)
		x.Metrics.Counter("compress.wire_bytes").Add(wire)
		if dense > 0 {
			x.Metrics.Histogram("compress.ratio", obs.RatioBuckets...).
				Observe(float64(wire) / float64(dense))
		}
	}
	return nil
}

// compressGPU compresses GPU g's dense region into its payload scratch.
func (x *Executor) compressGPU(_, g int) error {
	c := &x.call
	s := &c.states[g]
	if !s.active {
		return nil
	}
	var p *compress.Payload
	if c.useEF && !x.DisableErrorFeedback {
		key := compress.Key{Name: c.name, Lo: s.lo, Hi: s.hi}
		var err error
		if p, err = x.ef[g].CompressInto(x.payloadScratch[g], key, s.dense(), c.seed+uint64(g)); err != nil {
			return err
		}
	} else {
		p = x.comp.CompressInto(x.payloadScratch[g], s.dense(), c.seed+uint64(g))
	}
	p.Base = s.lo
	s.payloads = []*compress.Payload{p}
	s.compressed = true
	return nil
}

// decompressGPU replaces GPU g's payloads with the dense sum of their
// reconstructions.
func (x *Executor) decompressGPU(_, g int) error {
	s := &x.call.states[g]
	if !s.active {
		return nil
	}
	if !s.compressed {
		return fmt.Errorf("GPU %d decompressing a dense region", g)
	}
	acc := s.dense()
	clear(acc)
	for _, p := range s.payloads {
		// AddDecompressed works on a full-tensor accumulator;
		// shift the payload into region-relative coordinates.
		rel := *p
		rel.Base = p.Base - s.lo
		if err := compress.AddDecompressed(x.comp, &rel, acc); err != nil {
			return err
		}
	}
	s.payloads = nil
	s.compressed = false
	return nil
}
