package experiments

import "espresso/internal/par"

// parallelism is the package's worker budget. Table sweeps hand it to
// each Selector (parallel F(S) evaluation inside one selection, so
// per-model wall clocks stay meaningful); figure sweeps fan their
// independent (config, system) cells out over a bounded pool instead,
// with each cell's selection kept sequential to avoid oversubscription.
// Either way the results are bit-identical to a sequential run.
var parallelism = 1

// SetParallelism sets the worker budget for the package's sweeps;
// n < 1 selects GOMAXPROCS. Not safe to call while a sweep is running.
func SetParallelism(n int) { parallelism = par.Workers(n) }
