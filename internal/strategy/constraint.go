package strategy

// Constraint prunes the decision tree: an option is admissible when the
// constraint reports true. §4.2.2 calls this out as the user-facing
// extension point — "users can manually add constraints to prune the
// decision tree to rule out undesirable compression options", e.g.
// limiting the number of compression operations per tensor to bound
// accuracy loss.
type Constraint func(Option) bool

// Filter returns the options admissible under every constraint.
func Filter(opts []Option, cons ...Constraint) []Option {
	out := make([]Option, 0, len(opts))
	for _, o := range opts {
		ok := true
		for _, c := range cons {
			if !c(o) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, o)
		}
	}
	return out
}

// MaxCompOps admits options with at most n compression+decompression
// operations (the paper's accuracy-preservation example: every extra
// compression round compounds approximation error).
func MaxCompOps(n int) Constraint {
	return func(o Option) bool { return o.CompOps() <= n }
}

// RequireHierarchical rules out flat communication patterns (some
// deployments reserve the flat path for diagnostics).
func RequireHierarchical() Constraint {
	return func(o Option) bool { return o.Hier }
}
