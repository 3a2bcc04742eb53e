package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// Workload names, in the order BENCHMARK.json declares them.
const (
	serveSmall  = "serve-small"
	serveMixed  = "serve-mixed"
	selectLarge = "select-large"
	simIter     = "sim-iter"
)

var workloadNames = []string{serveSmall, serveMixed, selectLarge, simIter}

// opsPerSecond converts --seconds into each workload's fixed operation
// count: the rate the parent tree sustained on the 2-core reference box,
// frozen so that a run's count (and with it evals, WAL bytes, traffic
// bytes and heap) is a function of (--seconds, --seed) alone and repeats
// exactly. A faster tree finishes the same list sooner.
var opsPerSecond = map[string]float64{
	serveSmall:  600,
	serveMixed:  1300,
	selectLarge: 33,
	simIter:     16,
}

// Distinct generated cases per run. Selection cost across generated
// cases is heavy-tailed (0.03–9 ms at 1–6 tensors, 20–270 ms at 12–24),
// so a run needs this many — drawn stratified, see drawCases — before
// its totals stop depending on which cases the seed happened to draw.
const (
	maxServeCases = 2040
	warmReports   = 256     // reports the serve warm-up leaves for reads to hit
	simElems      = 1 << 15 // elements per tensor per GPU on sim-iter's data plane
)

// setups is how many times a run builds its workload from scratch;
// setup_s is the median. (A variable so the smoke test can build once.)
var setups = 3

// clientCount is the closed-loop client count: one goroutine (and one
// connection) per core up to four, never more than the machine has.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// opCount sizes a workload from the run length.
func opCount(name string, seconds float64) int {
	n := int(math.Round(seconds * opsPerSecond[name]))
	if n < 5 {
		n = 5 // one cycle of sim-iter's systems
	}
	return n
}

// workload is one built, warmed-up workload: op runs operation i (on
// the client's own connection), checks its output, and returns the
// latency of the call alone.
type workload interface {
	op(client, i int) (time.Duration, error)
	// counters reports the exact per-run counts once the measured phase
	// is over (before close, which folds the WAL away).
	counters() counters
	close() error
}

// counters are the run's exact, machine-independent numbers: the
// fingerprint two runs must share to be comparable, and the numerators
// of the exact metrics.
type counters struct {
	Evals        int64 `json:"evals"`
	WALBytes     int64 `json:"wal_bytes"`
	TrafficBytes int64 `json:"traffic_bytes"`
	// iterRatio sums selected ÷ FP32 predicted iteration time over the
	// successful operations that selected or predicted.
	iterRatio  float64
	iterRatioN int
}

// add records one successful selection or prediction. Each client adds
// to counters of its own; sumCounters folds them.
func (k *counters) add(evals int, ratio float64) {
	k.Evals += int64(evals)
	k.iterRatio += ratio
	k.iterRatioN++
}

func sumCounters(per []counters) counters {
	var k counters
	for _, c := range per {
		k.Evals += c.Evals
		k.iterRatio += c.iterRatio
		k.iterRatioN += c.iterRatioN
	}
	return k
}

// builder constructs a workload: everything up to and including the
// warm-up, i.e. what setup_s times.
type builder func(seed uint64, ops, clients int, dir string) (workload, error)

var builders = map[string]builder{
	serveSmall: func(seed uint64, ops, clients int, dir string) (workload, error) {
		return newServe(false, seed, ops, clients, dir, nil, nil)
	},
	serveMixed: func(seed uint64, ops, clients int, dir string) (workload, error) {
		return newServe(true, seed, ops, clients, dir, nil, nil)
	},
	selectLarge: func(seed uint64, ops, clients int, _ string) (workload, error) { return newSelectLarge(seed, ops) },
	simIter:     func(seed uint64, ops, _ int, _ string) (workload, error) { return newSimIter(seed) },
}

// measured is one untraced run of one workload.
type measured struct {
	ops, clients int
	setupS       []float64
	wall         time.Duration
	lat          []time.Duration // successful operations only, sorted
	errs         []error
	mallocs      uint64
	allocBytes   uint64
	heapLive     uint64
	counters     counters
}

// runWorkload builds the workload `setups` times (timing each), then
// drives the last build through its fixed operation list with a closed
// loop of clients.
func runWorkload(name string, seed uint64, seconds float64, workdir string) (*measured, error) {
	ops := opCount(name, seconds)
	clients := clientCount()
	if name == simIter {
		// The executor's error-feedback state is per tensor, not per
		// caller: training iterations are sequential.
		clients = 1
	}
	m := &measured{ops: ops, clients: clients}
	var w workload
	for s := 0; s < setups; s++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", name, s))
		t0 := time.Now()
		var err error
		if w, err = builders[name](seed, ops, clients, dir); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}

	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.drive(w, seconds)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)
	m.mallocs = after.Mallocs - before.Mallocs
	m.allocBytes = after.TotalAlloc - before.TotalAlloc
	m.heapLive = live.HeapAlloc
	m.counters = w.counters()
	if err := w.close(); err != nil {
		return nil, err
	}
	return m, nil
}

// drive runs the workload's operation list through a closed loop of
// m.clients callers, each taking the next operation as soon as its last
// one returned, and records wall time, latencies and failures.
func (m *measured) drive(w workload, seconds float64) {
	// A run that falls this far behind its budget stops early rather
	// than overrun the driver's cap; its operation count then differs
	// and -compare refuses it.
	budget := time.Duration(seconds*1.5*float64(time.Second)) + 5*time.Second
	ops := m.ops
	lat := make([]time.Duration, ops)
	errs := make([]error, ops)
	ran := make([]bool, ops)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < m.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= ops || time.Since(start) > budget {
					return
				}
				ran[i] = true
				lat[i], errs[i] = w.op(c, i)
			}
		}(c)
	}
	wg.Wait()
	m.wall = time.Since(start)
	m.ops = 0
	for i := range ran {
		switch {
		case !ran[i]:
		case errs[i] != nil:
			m.ops++
			m.errs = append(m.errs, fmt.Errorf("op %d: %w", i, errs[i]))
		default:
			m.ops++
			m.lat = append(m.lat, lat[i])
		}
	}
	sort.Slice(m.lat, func(i, k int) bool { return m.lat[i] < m.lat[k] })
}

// endToEnd reduces a run to the end-to-end metrics BENCHMARK.json
// declares.
func (m *measured) endToEnd() map[string]float64 {
	ops := float64(m.ops)
	out := map[string]float64{
		"setup_s":         median(m.setupS),
		"ops_per_s":       ops / m.wall.Seconds(),
		"allocs_per_op":   float64(m.mallocs) / ops,
		"alloc_kb_per_op": float64(m.allocBytes) / 1024 / ops,
		"heap_live_mb":    float64(m.heapLive) / (1 << 20),
		"iter_vs_fp32":    m.counters.iterRatio / float64(m.counters.iterRatioN),
	} // A failed operation misses every latency figure; the caller
	// refuses a run in which all did.
	out["latency_p50_ms"] = ms(quantile(m.lat, 0.50))
	out["latency_p95_ms"] = ms(quantile(m.lat, 0.95))
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile interpolates linearly between the two nearest ranks of a
// sorted sample.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// p50 sorts a copy of the sample and returns its median.
func p50(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	return quantile(s, 0.5)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// drawCases draws n generated cases from the seed's stream with a fixed
// census: cell assigns a case to a stratum (or rejects it with -1) and
// share gives each stratum's share of n. Generation costs microseconds,
// so rejection is free; what it buys is that two seeds give case lists
// whose cost differs only by the spread inside a stratum, not by how
// many large cases each happened to draw.
func drawCases(r *gen.Rand, n int, cfg gen.Config, share []float64, cell func(*gen.Case) int) []*gen.Case {
	quota := make([]int, len(share))
	left := n
	for k, s := range share {
		quota[k] = int(s * float64(n))
		left -= quota[k]
	}
	for k := 0; left > 0; k = (k + 1) % len(quota) {
		quota[k]++
		left--
	}
	out := make([]*gen.Case, 0, n)
	for len(out) < n {
		c := gen.Generate(r.Uint64(), cfg)
		if k := cell(c); k >= 0 && quota[k] > 0 {
			quota[k]--
			out = append(out, c)
		}
	}
	// Rare strata fill last; shuffle so position carries no census.
	for i := len(out) - 1; i > 0; i-- {
		k := r.Intn(i + 1)
		out[i], out[k] = out[k], out[i]
	}
	return out
}

// hierarchical reports whether the cluster has both communication
// levels — the property that widens |C_gpu| from 8 options to 88 and
// with it a selection's cost tenfold.
func hierarchical(c *cluster.Cluster) bool { return c.Machines > 1 && c.GPUsPerMachine > 1 }

// fp32Iter is the predicted iteration time of the uncompressed
// baseline strategy.
func fp32Iter(m *model.Model, c *cluster.Cluster, cm *cost.Models) (time.Duration, error) {
	return predict(m, c, cm, strategy.Uniform(len(m.Tensors), strategy.NoCompression(c)))
}

// predict is one F(S) evaluation on a fresh engine.
func predict(m *model.Model, c *cluster.Cluster, cm *cost.Models, s *strategy.Strategy) (time.Duration, error) {
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	return eng.IterTime(s)
}

// fileSize is the size of path, or 0 when it does not exist.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
