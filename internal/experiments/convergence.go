package experiments

import (
	"fmt"
	"strings"

	"espresso/internal/baselines"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
	"espresso/internal/train"
)

// Fig16Row is one bar/curve of Figure 16: final accuracy of FP32 vs
// Espresso-compressed training, with the throughput speedup of applying
// the same algorithm to the corresponding real model.
type Fig16Row struct {
	Task     string
	Algo     string
	FP32Acc  float64
	GCAcc    float64
	Speedup  float64
	RefModel string
}

// Fig16 reproduces the convergence validation of §5.4 on the synthetic
// substrate: (a) a fine-tuning-style task (logistic regression; the
// paper's BERT-on-SQuAD analog) under DGC and RandomK, and (b) a
// train-from-scratch task (MLP on circles; the ResNet101-on-ImageNet
// analog) under EFSignSGD. Gradients flow through the real compression
// and collective stack with error feedback; speedups come from the
// timeline engine's predicted iteration times on the referenced models.
func Fig16() ([]Fig16Row, error) {
	smallCluster := NVLink.Make(2)
	smallCluster.GPUsPerMachine = 2
	opt := baselines.InterCompressed(smallCluster, cost.GPU)

	speedup := func(m *model.Model, tb Testbed, spec compress.Spec) (float64, error) {
		cl := tb.Make(8)
		cm, err := cost.NewModels(cl, spec)
		if err != nil {
			return 0, err
		}
		fp32, err := IterTime(SysFP32, m, cl, cm)
		if err != nil {
			return 0, err
		}
		esp, err := IterTime(SysEspresso, m, cl, cm)
		if err != nil {
			return 0, err
		}
		return train.SpeedupEstimate(fp32, esp), nil
	}

	var rows []Fig16Row

	// (a) Fine-tuning analog: logistic regression, DGC and RandomK,
	// speedups referenced to BERT-base.
	ds := train.SyntheticLinear(2000, 10, 0.02, 21)
	base, err := train.Run(train.NewLogistic(10), ds, train.Config{
		Cluster: smallCluster, Spec: compress.Spec{ID: compress.FP32},
		Option: strategy.NoCompression(smallCluster),
		LR:     0.5, Batch: 16, Iters: 150, Seed: 22,
	})
	if err != nil {
		return nil, err
	}
	for _, spec := range []compress.Spec{
		{ID: compress.DGC, Ratio: 0.25},
		{ID: compress.RandomK, Ratio: 0.25},
	} {
		hist, err := train.Run(train.NewLogistic(10), ds, train.Config{
			Cluster: smallCluster, Spec: spec, Option: opt,
			LR: 0.5, Batch: 16, Iters: 150, Seed: 22,
		})
		if err != nil {
			return nil, err
		}
		refSpec := compress.Spec{ID: spec.ID, Ratio: 0.01}
		sp, err := speedup(model.BERTBase(), NVLink, refSpec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig16Row{
			Task: "finetune(logistic)", Algo: spec.ID.String(),
			FP32Acc: base.Final().Accuracy, GCAcc: hist.Final().Accuracy,
			Speedup: sp, RefModel: "bert-base",
		})
	}

	// (b) From-scratch analog: MLP on circles, EFSignSGD, speedup
	// referenced to ResNet101.
	circles := train.Circles(1200, 23)
	mlpBase, err := train.Run(train.NewMLP(2, 16, 24), circles, train.Config{
		Cluster: smallCluster, Spec: compress.Spec{ID: compress.FP32},
		Option: strategy.NoCompression(smallCluster),
		LR:     0.8, Batch: 32, Iters: 400, Seed: 25,
	})
	if err != nil {
		return nil, err
	}
	mlpGC, err := train.Run(train.NewMLP(2, 16, 24), circles, train.Config{
		Cluster: smallCluster, Spec: compress.Spec{ID: compress.EFSignSGD}, Option: opt,
		LR: 0.8, Batch: 32, Iters: 400, Seed: 25,
	})
	if err != nil {
		return nil, err
	}
	sp, err := speedup(model.ResNet101(), PCIe, SpecEFSignSGD)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig16Row{
		Task: "scratch(mlp)", Algo: "efsignsgd",
		FP32Acc: mlpBase.Final().Accuracy, GCAcc: mlpGC.Final().Accuracy,
		Speedup: sp, RefModel: "resnet101",
	})
	return rows, nil
}

// RenderFig16 formats the convergence results.
func RenderFig16(rows []Fig16Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-10s %8s %8s %8s  %s\n", "Task", "Algo", "FP32", "GC", "Speedup", "Ref model")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-10s %7.1f%% %7.1f%% %7.2fx  %s\n",
			r.Task, r.Algo, 100*r.FP32Acc, 100*r.GCAcc, r.Speedup, r.RefModel)
	}
	return b.String()
}
