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

// Consumers key per-option state by the Steps array, so a decoded
// strategy must hold one array per distinct option, as Uniform does: a
// ResNet101-sized uniform strategy decodes to one, and a mixed one to one
// per option, and both encode back to the same bytes.
func TestUnmarshalInternsEqualOptions(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	opts := Enumerate(c)
	mixed := Uniform(314, opts[0])
	for i := range mixed.PerTensor {
		mixed.PerTensor[i] = opts[i%3*7]
	}
	for _, tc := range []struct {
		name     string
		s        *Strategy
		distinct int
	}{
		{"uniform", Uniform(314, opts[len(opts)-1]), 1},
		{"mixed", mixed, 3},
	} {
		buf, err := Marshal(tc.s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		arrays := map[*Step]bool{}
		for i, o := range back.PerTensor {
			if !o.Equal(tc.s.PerTensor[i]) {
				t.Fatalf("%s: tensor %d decoded to %v, encoded %v", tc.name, i, o, tc.s.PerTensor[i])
			}
			arrays[&o.Steps[0]] = true
		}
		if len(arrays) != tc.distinct {
			t.Errorf("%s: %d tensors decoded to %d Steps arrays, want %d", tc.name, len(back.PerTensor), len(arrays), tc.distinct)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(buf) {
			t.Errorf("%s: re-encoding the decoded strategy changed its bytes", tc.name)
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
