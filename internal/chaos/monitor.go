package chaos

import "time"

// Monitor detects sustained degradation: the runner classifies each
// iteration's observed makespan against the engine's prediction, and
// when it exceeds the prediction by Factor for Consecutive iterations
// in a row, the monitor trips, signalling the runner to snapshot the
// degraded topology and re-run strategy selection.
type Monitor struct {
	// Factor is the observed/predicted breach threshold (> 1).
	Factor float64
	// Consecutive is how many breaches in a row trip the monitor.
	Consecutive int

	breaches int
	tripped  bool
}

// NewMonitor builds a monitor from plan configuration, applying the
// defaults (factor 1.5, 3 consecutive breaches) to zero fields.
func NewMonitor(cfg MonitorConfig) *Monitor {
	mo := &Monitor{Factor: cfg.Factor, Consecutive: cfg.Consecutive}
	if mo.Factor <= 1 {
		mo.Factor = 1.5
	}
	if mo.Consecutive <= 0 {
		mo.Consecutive = 3
	}
	return mo
}

// Observe classifies one iteration: whether it breached (observed >
// Factor*predicted), and whether the monitor is now tripped (Consecutive
// breaches in a row).
func (mo *Monitor) Observe(predicted, observed time.Duration) (breach, tripped bool) {
	breach = float64(observed) > mo.Factor*float64(predicted)
	if breach {
		mo.breaches++
	} else {
		mo.breaches = 0
	}
	if mo.breaches >= mo.Consecutive {
		mo.tripped = true
	}
	return breach, mo.tripped
}

// Reset clears breach state after the controller has acted (re-selection
// adopted), so a later, different degradation can trip again.
func (mo *Monitor) Reset() {
	mo.breaches = 0
	mo.tripped = false
}
