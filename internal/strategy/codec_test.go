package strategy

import (
	"encoding/json"
	"testing"

	"espresso/internal/cluster"
	"espresso/internal/cost"
)

func TestOptionJSONRoundTripAll(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	for _, o := range Enumerate(c) {
		buf, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		var back Option
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if !back.Equal(o) {
			t.Fatalf("round trip changed option:\n  in:  %v\n  out: %v", o, back)
		}
	}
}

func TestStrategyMarshalRoundTrip(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	opts := EnumerateGPU(c)
	s := &Strategy{PerTensor: []Option{opts[0], opts[5], opts[10].WithDevice(cost.CPU)}}
	buf, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.PerTensor) != 3 {
		t.Fatalf("%d options", len(back.PerTensor))
	}
	for i := range s.PerTensor {
		if !back.PerTensor[i].Equal(s.PerTensor[i]) {
			t.Fatalf("tensor %d differs after round trip", i)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"per_tensor":[{"steps":[{"act":"zip"}]}]}`,
		`{"per_tensor":[{"steps":[{"act":"comm","routine":"warp","scope":"flat"}]}]}`,
		`{"per_tensor":[{"steps":[{"act":"comm","routine":"allreduce","scope":"orbital"}]}]}`,
		`{"per_tensor":[{"steps":[{"act":"comp","dev":"TPU"}]}]}`,
		`not json`,
	}
	for _, tc := range cases {
		if _, err := Unmarshal([]byte(tc)); err == nil {
			t.Errorf("accepted %q", tc)
		}
	}
}

func TestConstraints(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	all := Enumerate(c)

	limited := Filter(all, MaxCompOps(2))
	if len(limited) == 0 || len(limited) >= len(all) {
		t.Fatalf("MaxCompOps(2): %d of %d", len(limited), len(all))
	}
	for _, o := range limited {
		if o.CompOps() > 2 {
			t.Fatalf("%v has %d comp ops", o, o.CompOps())
		}
	}

	hier := Filter(all, RequireHierarchical())
	for _, o := range hier {
		if !o.Hier {
			t.Fatalf("%v is flat", o)
		}
	}

	// Composition: the intersection applies all constraints.
	both := Filter(all, MaxCompOps(2), RequireHierarchical())
	for _, o := range both {
		if o.CompOps() > 2 || !o.Hier {
			t.Fatalf("composed constraints violated: %v", o)
		}
	}
	if len(both) >= len(limited) {
		t.Fatalf("composition did not narrow: %d vs %d", len(both), len(limited))
	}
}
