package diff

import (
	"strings"
	"testing"
)

// A small harness run inside go test: every differential check must
// hold on the first batch of generated cases, so a regression in the
// engine, selector, or oracle fails `go test ./...` even before the CI
// gate runs cmd/espresso-verify at full depth. Every third case checks
// Algorithm 2 against exhaustive enumeration (offload-exact): 100 here.
func TestHarnessSmoke(t *testing.T) {
	const cases = 300
	sum, err := Run(Config{Cases: cases, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Passed() {
		for _, f := range sum.Failures {
			t.Error(f)
		}
		t.Fatalf("%d differential failures in %d cases", len(sum.Failures), sum.Cases)
	}
	if sum.Cases != cases {
		t.Fatalf("ran %d cases, want %d", sum.Cases, cases)
	}
	// Every check family must actually have fired: a harness that
	// silently skips its assertions would pass vacuously.
	for _, check := range []string{"single-chain", "select-fp32", "select-allcomp", "select-baselines", "bracket", "engine-bound", "engine-fork", "engine-memo", "beta-scaling", "add-tensor", "greedy-brute", "offload-exact"} {
		if sum.Checks[check] == 0 {
			t.Errorf("check %q never ran in %d cases", check, cases)
		}
	}
}

// A failure's String carries the reproduction command with the case
// seed, the contract TESTING.md documents.
func TestFailurePrintsReproSeed(t *testing.T) {
	f := Failure{Seed: 42, Check: "bracket", Detail: "engine above upper bound"}
	s := f.String()
	if !strings.Contains(s, "espresso-verify -cases 1 -seed 42") {
		t.Fatalf("failure string %q lacks the reproduction command", s)
	}
}

func TestSummaryString(t *testing.T) {
	sum := &Summary{Cases: 3, Checks: map[string]int{"bracket": 12}}
	if s := sum.String(); !strings.Contains(s, "bracket") || !strings.Contains(s, "12") {
		t.Fatalf("summary %q omits check counts", s)
	}
}
