package strategy

import (
	"encoding/json"
	"fmt"

	"espresso/internal/cost"
)

// stepJSON is the wire form of a Step.
type stepJSON struct {
	Act        string `json:"act"`
	Routine    string `json:"routine,omitempty"`
	Scope      string `json:"scope,omitempty"`
	Compressed bool   `json:"compressed,omitempty"`
	Second     bool   `json:"second,omitempty"`
	Dev        string `json:"dev,omitempty"`
}

type optionJSON struct {
	Hier  bool       `json:"hier,omitempty"`
	Steps []stepJSON `json:"steps"`
}

// MarshalJSON encodes the option with symbolic names, so persisted
// strategies survive enum reordering.
func (o Option) MarshalJSON() ([]byte, error) {
	out := optionJSON{Hier: o.Hier}
	for _, s := range o.Steps {
		js := stepJSON{Compressed: s.Compressed, Second: s.Second}
		switch s.Act {
		case Comp:
			js.Act = "comp"
			js.Dev = s.Dev.String()
		case Decomp:
			js.Act = "decomp"
			js.Dev = s.Dev.String()
		case Comm:
			js.Act = "comm"
			js.Routine = s.Routine.String()
			js.Scope = s.Scope.String()
		default:
			return nil, fmt.Errorf("strategy: unknown act %d", s.Act)
		}
		out.Steps = append(out.Steps, js)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes an option encoded by MarshalJSON.
func (o *Option) UnmarshalJSON(buf []byte) error {
	var in optionJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return err
	}
	out := Option{Hier: in.Hier}
	for i, js := range in.Steps {
		s := Step{Compressed: js.Compressed, Second: js.Second}
		switch js.Act {
		case "comp":
			s.Act = Comp
		case "decomp":
			s.Act = Decomp
		case "comm":
			s.Act = Comm
		default:
			return fmt.Errorf("strategy: step %d has unknown act %q", i, js.Act)
		}
		if s.Act != Comm {
			switch js.Dev {
			case "GPU", "":
				s.Dev = cost.GPU
			case "CPU":
				s.Dev = cost.CPU
			default:
				return fmt.Errorf("strategy: step %d has unknown device %q", i, js.Dev)
			}
		} else {
			r, err := parseRoutine(js.Routine)
			if err != nil {
				return fmt.Errorf("strategy: step %d: %w", i, err)
			}
			s.Routine = r
			sc, err := parseScope(js.Scope)
			if err != nil {
				return fmt.Errorf("strategy: step %d: %w", i, err)
			}
			s.Scope = sc
		}
		out.Steps = append(out.Steps, s)
	}
	*o = out
	return nil
}

func parseRoutine(name string) (Routine, error) {
	for r := Allreduce; r <= Gather; r++ {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("unknown routine %q", name)
}

func parseScope(name string) (Scope, error) {
	for sc := Intra; sc <= Flat; sc++ {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scope %q", name)
}

// Marshal serializes a strategy to JSON.
func Marshal(s *Strategy) ([]byte, error) {
	return json.Marshal(struct {
		PerTensor []Option `json:"per_tensor"`
	}{s.PerTensor})
}

// Unmarshal parses a strategy produced by Marshal. Equal options share one
// Steps array, as Uniform's do: consumers key per-option state by that
// array's identity (the timeline engine's chain memo), so a decoded
// strategy costs them one entry per distinct option, not per tensor.
func Unmarshal(buf []byte) (*Strategy, error) {
	var in struct {
		PerTensor []Option `json:"per_tensor"`
	}
	if err := json.Unmarshal(buf, &in); err != nil {
		return nil, err
	}
	var distinct []Option
	for i, o := range in.PerTensor {
		j := 0
		for j < len(distinct) && !distinct[j].Equal(o) {
			j++
		}
		if j == len(distinct) {
			distinct = append(distinct, o)
		}
		in.PerTensor[i] = distinct[j]
	}
	return &Strategy{PerTensor: in.PerTensor}, nil
}
