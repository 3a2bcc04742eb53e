package main

import (
	"bytes"
	"fmt"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// selectJob is one selection problem with its cost models prebuilt, as
// a caller holding a profiled cluster has them.
type selectJob struct {
	class string // "lstm", "vgg16" or "gen"
	m     *model.Model
	c     *cluster.Cluster
	cm    *cost.Models
	fp32  time.Duration
	// Zoo jobs repeat within a run, so each is selected once in set-up
	// and every repetition must reproduce that answer; generated jobs
	// are all distinct and are checked for self-consistency only.
	refStrategy []byte
	refIter     time.Duration
	refEvals    int
}

// selectLargeWL is in-process selection with nothing around it: per 24
// operations, the 8 zoo jobs (lstm and vgg16 on the paper's two
// testbeds under dgc and efsignsgd — real size censuses with repeated
// tensor sizes) and 16 generated cases of 12–24 tensors on two-level
// clusters (every size distinct).
type selectLargeWL struct {
	jobs  []selectJob
	ops   []int      // job index per operation
	tally []counters // one per client
}

const (
	zooPerBlock = 8
	genPerBlock = 16
)

func zooJobs() ([]selectJob, error) {
	var jobs []selectJob
	for _, m := range []*model.Model{model.LSTM(), model.VGG16()} {
		for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(8), cluster.PCIeTestbed(8)} {
			for _, spec := range []compress.Spec{{ID: compress.DGC, Ratio: 0.01}, {ID: compress.EFSignSGD}} {
				cm, err := cost.NewModels(c, spec)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, selectJob{class: m.Name, m: m, c: c, cm: cm})
			}
		}
	}
	return jobs, nil
}

// largeGenConfig bounds select-large's generated cases.
var largeGenConfig = gen.Config{MinTensors: 12, MaxTensors: 24}

// largeShares is the census of the generated cases: tensor counts 12–24
// equally (the exact offload search below 16 tensors costs several
// times the greedy one above), two-level clusters only.
func largeShares() ([]float64, func(*gen.Case) int) {
	n := largeGenConfig.MaxTensors - largeGenConfig.MinTensors + 1
	share := make([]float64, n)
	for k := range share {
		share[k] = 1 / float64(n)
	}
	return share, func(c *gen.Case) int {
		if !hierarchical(c.Cluster) {
			return -1
		}
		return len(c.Model.Tensors) - largeGenConfig.MinTensors
	}
}

func newSelectLarge(seed uint64, ops int) (*selectLargeWL, error) {
	r := gen.New(seed)
	jobs, err := zooJobs()
	if err != nil {
		return nil, err
	}
	blocks := (ops + zooPerBlock + genPerBlock - 1) / (zooPerBlock + genPerBlock)
	share, cell := largeShares()
	for _, c := range drawCases(r, blocks*genPerBlock, largeGenConfig, share, cell) {
		cm, err := cost.NewModels(c.Cluster, c.Spec)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", c, err)
		}
		jobs = append(jobs, selectJob{class: "gen", m: c.Model, c: c.Cluster, cm: cm})
	}
	for i := range jobs {
		j := &jobs[i]
		if j.fp32, err = fp32Iter(j.m, j.c, j.cm); err != nil {
			return nil, err
		}
	}
	w := &selectLargeWL{jobs: jobs, tally: make([]counters, clientCount())}
	// Warm-up and reference in one: each zoo job selected once.
	for i := 0; i < zooPerBlock; i++ {
		j := &jobs[i]
		s, rep, err := core.NewSelector(j.m, j.c, j.cm).Select()
		if err != nil {
			return nil, err
		}
		if j.refStrategy, err = strategy.Marshal(s); err != nil {
			return nil, err
		}
		j.refIter, j.refEvals = rep.Iter, rep.Evals
	}
	block := make([]int, zooPerBlock+genPerBlock)
	for b := 0; b < blocks; b++ {
		for i := range block {
			block[i] = i
			if i >= zooPerBlock {
				block[i] = b*genPerBlock + i
			}
		}
		for i := len(block) - 1; i > 0; i-- {
			k := r.Intn(i + 1)
			block[i], block[k] = block[k], block[i]
		}
		w.ops = append(w.ops, block...)
	}
	w.ops = w.ops[:ops]
	return w, nil
}

func (w *selectLargeWL) op(c, i int) (time.Duration, error) {
	j := &w.jobs[w.ops[i]]
	t0 := time.Now()
	s, rep, err := core.NewSelector(j.m, j.c, j.cm).Select()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	if err := j.check(s, rep); err != nil {
		return lat, fmt.Errorf("%s job %d: %w", j.class, w.ops[i], err)
	}
	w.tally[c].add(rep.Evals, float64(rep.Iter)/float64(j.fp32))
	return lat, nil
}

// check verifies a selection: the reported iteration time is what the
// timeline predicts for the returned strategy, it is no worse than the
// FP32 baseline (the guarantee the seed family gives), and a repeated
// job reproduces its reference exactly.
func (j *selectJob) check(s *strategy.Strategy, rep *core.Report) error {
	iter, err := predict(j.m, j.c, j.cm, s)
	if err != nil {
		return err
	}
	if iter != rep.Iter {
		return fmt.Errorf("reported iteration time %v, strategy predicts %v", rep.Iter, iter)
	}
	if rep.Iter > j.fp32 {
		return fmt.Errorf("selected %v is worse than FP32 %v", rep.Iter, j.fp32)
	}
	if j.refStrategy == nil {
		return nil
	}
	sj, err := strategy.Marshal(s)
	if err != nil {
		return err
	}
	if rep.Iter != j.refIter || rep.Evals != j.refEvals || !bytes.Equal(sj, j.refStrategy) {
		return fmt.Errorf("selection differs from the set-up reference")
	}
	return nil
}

func (w *selectLargeWL) counters() counters { return sumCounters(w.tally) }

func (w *selectLargeWL) close() error { return nil }
