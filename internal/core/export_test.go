package core

// The corpus pass (corpus_test.go) is in package core_test because it also
// drives chaos.Reselect, and chaos imports core. These are the unexported
// hooks it holds the Selector's shortcuts to.
var (
	SeedPass          = (*Selector).seedPass
	BestSeed          = (*Selector).bestSeed
	BestOf            = (*Selector).bestOf
	SweepFrom         = (*Selector).sweepFrom
	OffloadBelow      = (*Selector).offloadCPU
	Iter              = (*Selector).iter
	CompressedOptions = (*Selector).compressedOptions
)

// SetRunAll sets the differential hook: judge nothing by bound or stamp,
// run every candidate on the timeline from t=0 to the end.
func (sel *Selector) SetRunAll(on bool) { sel.runAll = on }

// Judged is how rep's evaluations were judged without a run to the end,
// and the event-loop completions all of them simulated.
func (rep *Report) Judged() (cut, bounded, unchanged, events int) {
	return rep.cut, rep.bounded, rep.unchanged, rep.events
}
