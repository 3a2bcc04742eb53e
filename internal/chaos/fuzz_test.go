package chaos

import (
	"testing"
	"time"
)

// FuzzParsePlan asserts malformed plan JSON never panics: Parse either
// rejects the input or returns a plan that survives re-validation and
// the membership/transition queries the Runner performs.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{"seed": 1, "faults": []}`))
	f.Add([]byte(`{"seed": 42, "deadline": "5ms", "faults": [
		{"kind": "straggler", "src": -1, "scale": 0.25, "start": "1ms"}]}`))
	f.Add([]byte(`{"faults": [{"kind": "leave", "rank": 3, "start": "10ms"},
		{"kind": "join", "rank": 3, "start": "30ms"}]}`))
	f.Add([]byte(`{"reconfig": {"policy": "abort-after-n-failures", "max_failures": 2,
		"barrier_timeout": "1ms", "barrier_backoff": 2, "barrier_attempts": 3}, "faults": []}`))
	f.Add([]byte(`{"faults": [{"kind": "flap", "src": 0, "dst": 1, "scale": 0.5,
		"start": "0s", "duration": "10ms", "period": "1ms"}]}`))
	f.Add([]byte(`{"faults": [{"kind": "loss", "rate": 1e308, "duration": -1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"faults": [{"kind": "leave", "rank": 9999999999}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		// A plan Parse accepted must stay internally consistent.
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails re-validation: %v\n%s", err, data)
		}
		if _, err := p.MembersAt(time.Hour, 4); err != nil {
			// Out-of-range ranks are a legal validation outcome here (the
			// plan does not know the cluster size), not a panic.
			_ = err
		}
		p.DeviceScalesAt(time.Millisecond)
		p.CorruptRate(time.Millisecond)
		p.HasMembershipFaults()
		// Lowering must never panic either.
		p.transitionsFor([]int{0, 1, 2, 3}, 1e9)
	})
}
