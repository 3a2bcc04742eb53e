// Package train is the convergence-validation substrate (§5.4): real
// models trained with SGD whose gradients synchronize through the ddl
// executor's compression pipeline — the same code path the throughput
// experiments model. It substitutes small synthetic tasks (linearly
// separable classification for logistic regression, concentric circles
// for an MLP) for the paper's ImageNet/SQuAD runs; the claim under test
// is identical: GC with error feedback preserves accuracy relative to
// FP32.
package train

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/ddl"
	"espresso/internal/strategy"
)

// Dataset is a labeled dataset; Y holds class labels in {0, 1}.
type Dataset struct {
	X [][]float32
	Y []float32
}

// Len reports the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// SyntheticLinear draws a linearly separable binary task of n examples in
// dim dimensions with the given label-noise fraction.
func SyntheticLinear(n, dim int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	ds := &Dataset{X: make([][]float32, n), Y: make([]float32, n)}
	for i := 0; i < n; i++ {
		x := make([]float32, dim)
		dot := 0.0
		for j := range x {
			v := rng.NormFloat64()
			x[j] = float32(v)
			dot += v * w[j]
		}
		y := float32(0)
		if dot > 0 {
			y = 1
		}
		if rng.Float64() < noise {
			y = 1 - y
		}
		ds.X[i] = x
		ds.Y[i] = y
	}
	return ds
}

// Circles draws a nonlinear two-class task: points inside a circle vs a
// surrounding annulus — logistic regression fails here, an MLP succeeds.
func Circles(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{X: make([][]float32, n), Y: make([]float32, n)}
	for i := 0; i < n; i++ {
		var r float64
		y := float32(i % 2)
		if y == 0 {
			r = 0.5 * rng.Float64()
		} else {
			r = 1.0 + 0.5*rng.Float64()
		}
		theta := 2 * math.Pi * rng.Float64()
		ds.X[i] = []float32{float32(r * math.Cos(theta)), float32(r * math.Sin(theta))}
		ds.Y[i] = y
	}
	return ds
}

// Model is a trainable model whose parameters are exposed as named
// gradient tensors, the unit of synchronization.
type Model interface {
	// Params returns the parameter tensors; updates are applied in
	// place through these slices.
	Params() []Tensor
	// Gradients computes per-tensor gradients of the loss over a batch.
	Gradients(x [][]float32, y []float32) [][]float32
	// Loss is the mean loss over a dataset.
	Loss(ds *Dataset) float64
	// Accuracy is the classification accuracy over a dataset.
	Accuracy(ds *Dataset) float64
}

// Tensor is one named parameter tensor.
type Tensor struct {
	Name string
	Data []float32
}

// Config drives a distributed training run.
type Config struct {
	Cluster *cluster.Cluster
	Spec    compress.Spec
	// Option is the compression option applied to every tensor.
	Option strategy.Option
	// Options, when non-nil, assigns one option per parameter tensor
	// (aligned with Model.Params()) and overrides Option — this is how
	// a strategy selected by Espresso's decision algorithm, which mixes
	// options across tensors, is trained under.
	Options []strategy.Option
	// DisableErrorFeedback runs GC without error feedback (ablation).
	DisableErrorFeedback bool

	LR    float64
	Batch int // per-worker batch size
	// Iters is the run length; the loss is evaluated every Iters/10
	// iterations (at least every one) and after the last.
	Iters int
	Seed  int64
}

// Point is one evaluation of the training history.
type Point struct {
	Iter     int
	Loss     float64
	Accuracy float64
}

// History is the recorded training curve.
type History struct {
	Points []Point
}

// Final returns the last evaluation point.
func (h *History) Final() Point {
	if len(h.Points) == 0 {
		return Point{}
	}
	return h.Points[len(h.Points)-1]
}

// Run trains m on ds with synchronous data-parallel SGD: each simulated
// GPU draws its own mini-batch, gradients synchronize through the
// compression pipeline, and every worker applies the identical averaged
// update (so a single parameter copy suffices, exactly as synchronous
// data parallelism guarantees).
func Run(m Model, ds *Dataset, cfg Config) (*History, error) {
	if cfg.Batch <= 0 || cfg.Iters <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("train: batch, iters, and lr must be positive")
	}
	evalEvery := max(cfg.Iters/10, 1)
	x, err := ddl.NewExecutor(cfg.Cluster, cfg.Spec)
	if err != nil {
		return nil, err
	}
	x.DisableErrorFeedback = cfg.DisableErrorFeedback
	workers := cfg.Cluster.TotalGPUs()
	rng := rand.New(rand.NewSource(cfg.Seed))
	hist := &History{}

	params := m.Params()
	optionFor := func(ti int) strategy.Option {
		if cfg.Options != nil {
			return cfg.Options[ti]
		}
		return cfg.Option
	}
	if cfg.Options != nil && len(cfg.Options) != len(params) {
		return nil, fmt.Errorf("train: %d options for %d parameter tensors", len(cfg.Options), len(params))
	}
	for it := 0; it < cfg.Iters; it++ {
		// Per-worker gradient computation on independent batches.
		perWorker := make([][][]float32, workers) // [worker][tensor]grad
		for w := 0; w < workers; w++ {
			bx := make([][]float32, cfg.Batch)
			by := make([]float32, cfg.Batch)
			for b := 0; b < cfg.Batch; b++ {
				i := rng.Intn(ds.Len())
				bx[b] = ds.X[i]
				by[b] = ds.Y[i]
			}
			perWorker[w] = m.Gradients(bx, by)
		}
		// Synchronize tensor by tensor through the strategy executor.
		for ti, p := range params {
			grads := make([][]float32, workers)
			for w := 0; w < workers; w++ {
				grads[w] = perWorker[w][ti]
			}
			synced, err := x.SyncTensor(p.Name, grads, optionFor(ti), uint64(it))
			if err != nil {
				return nil, err
			}
			// All workers hold the identical aggregate; apply the
			// averaged update once.
			scale := float32(cfg.LR) / float32(workers)
			for j, g := range synced[0] {
				p.Data[j] -= scale * g
			}
		}
		if (it+1)%evalEvery == 0 || it == cfg.Iters-1 {
			hist.Points = append(hist.Points, Point{
				Iter:     it + 1,
				Loss:     m.Loss(ds),
				Accuracy: m.Accuracy(ds),
			})
		}
	}
	return hist, nil
}

// SpeedupEstimate pairs a convergence run with the throughput prediction:
// given FP32 and compressed iteration times from the timeline engine, it
// reports the wall-clock speedup to reach the same number of iterations
// (the 1.55x / 1.23x numbers of Figure 16).
func SpeedupEstimate(fp32Iter, gcIter time.Duration) float64 {
	if gcIter <= 0 {
		return 0
	}
	return float64(fp32Iter) / float64(gcIter)
}
