// Package basis defines the pluggable rule-basis interface and the
// process-wide registry the public API dispatches through — the
// basis-construction counterpart of internal/miner. The paper's
// deliverable is not the closed itemsets themselves but the bases
// built on them (Duquenne–Guigues for exact rules, Luxenburger for
// approximate ones); making those constructions registry-resolved
// gives follow-on bases (Balcázar's closure-operator framework,
// Hamrouni's simultaneous construction) a seam to plug into without
// touching this package or the root package.
//
// Each construction registers a Builder from an init function; the
// registry itself never imports a construction, so the dependency
// arrow points one way, exactly as with miners.
package basis

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"closedrules/internal/closedset"
	"closedrules/internal/lattice"
	"closedrules/internal/rules"
)

// Requirements declares what a basis construction needs from the
// mining result. The registry checks them centrally in Build, so a
// Builder body can assume they are satisfied.
type Requirements struct {
	// Generators requires the closed itemsets to carry their minimal
	// generators (only generator-tracking miners record them).
	Generators bool
	// Lattice requires the iceberg lattice of the closed itemsets.
	Lattice bool
}

// BuildInput carries everything a basis construction may consume. The
// expensive input — the iceberg lattice — is handed over as a thunk so
// a builder that does not need it never pays for it; Build guarantees
// the thunk is non-nil when a builder declares it in its Requirements.
type BuildInput struct {
	// NumTx is |O|, the transaction count of the mined dataset.
	NumTx int
	// FC is the indexed set of frequent closed itemsets.
	FC *closedset.Set
	// HasGenerators reports whether FC carries minimal generators.
	HasGenerators bool
	// MinerName names the miner that produced FC (for error messages).
	MinerName string
	// MinConfidence keeps only rules with confidence ≥ this threshold;
	// exact-rule bases ignore it (their rules all have confidence 1).
	// Builders must treat it as a pure per-rule filter — callers may
	// build once at threshold 0 and filter the output themselves, and
	// the two routes must agree.
	MinConfidence float64
	// Reduced selects the transitive-reduction variant of bases that
	// have one (Luxenburger, informative); bases without a reduced
	// variant ignore it.
	Reduced bool
	// IncludeEmptyAntecedent keeps rules whose antecedent is the empty
	// closed set. Conventional listings exclude them; the derivation
	// engine needs the unfiltered diagram.
	IncludeEmptyAntecedent bool
	// Lattice lazily builds (and caches) the iceberg lattice.
	Lattice func() *lattice.Lattice
	// ResolveGenerators, when non-nil, lazily re-mines FC with a
	// generator-tracking miner. Build consults it only when a
	// generator-requiring basis meets a generator-less FC: on success
	// the resolved set replaces FC for that build, on failure (or when
	// nil — the default, since resolution re-mines the dataset) the
	// requirement check fails with the explicit error. The root package
	// wires it to a memoized genclose run behind the
	// WithGeneratorResolution opt-in.
	ResolveGenerators func(context.Context) (*closedset.Set, error)
}

// RuleSet is a basis construction's output: the rules plus the
// provenance needed to interpret them — which basis produced them and
// at which thresholds. It is what feeds the derivation engine and the
// serving layer.
type RuleSet struct {
	// Basis is the canonical registry name of the producing basis.
	Basis string
	// MinConfidence is the confidence threshold the rules were built at.
	MinConfidence float64
	// Reduced reports whether the transitive-reduction variant was built.
	Reduced bool
	// Rules is the basis itself, in canonical sorted order.
	Rules []rules.Rule
}

// Len returns the number of rules in the set.
func (rs *RuleSet) Len() int { return len(rs.Rules) }

// Builder is a pluggable rule-basis construction. Register an
// implementation with Register to make it reachable by name from
// Result.Basis, the armine CLI and the HTTP server. Implementations
// must return rules in canonical sorted order (rules.Sort), honor ctx
// cancellation, and be safe for concurrent use (the registry hands
// the same instance to every caller).
type Builder interface {
	// Name is the basis's preferred display name, recorded as the
	// RuleSet provenance regardless of which alias resolved it.
	Name() string
	// Requirements declares the inputs the construction consumes;
	// Build verifies them before calling.
	Requirements() Requirements
	// Build constructs the basis. It may assume Requirements hold.
	Build(ctx context.Context, in BuildInput) (RuleSet, error)
}

var (
	mu       sync.RWMutex
	builders = map[string]Builder{}
	display  = map[string]string{} // canonical key → name as registered
)

// Canonical normalizes a basis name: lower-cased with hyphens and
// underscores removed, so "Duquenne-Guigues" and "duquenneguigues"
// name the same basis (the same convention as miner names).
func Canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	name = strings.ReplaceAll(name, "-", "")
	name = strings.ReplaceAll(name, "_", "")
	return name
}

// Register makes a basis builder available under the given name. It
// panics if the builder is nil or the name is empty or already taken —
// registration happens in init functions, where a duplicate is a
// programming error, not a runtime condition.
func Register(name string, b Builder) {
	key := Canonical(name)
	mu.Lock()
	defer mu.Unlock()
	if b == nil {
		panic("closedrules: RegisterBasis with nil builder")
	}
	if key == "" {
		panic("closedrules: RegisterBasis with empty name")
	}
	if _, dup := builders[key]; dup {
		panic(fmt.Sprintf("closedrules: RegisterBasis called twice for %q", key))
	}
	builders[key] = b
	display[key] = strings.TrimSpace(name)
}

// Lookup resolves a registered basis builder by name; the error of an
// unknown name lists the registered alternatives.
func Lookup(name string) (Builder, error) {
	mu.RLock()
	b, ok := builders[Canonical(name)]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("closedrules: unknown basis %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return b, nil
}

// Names returns the registered basis names (as registered, e.g.
// "duquenne-guigues"), sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(display))
	for _, n := range display {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build resolves the named basis, verifies its Requirements against
// the input, and runs the construction. The returned RuleSet's
// provenance fields are stamped here, so a builder cannot misreport
// which basis or thresholds produced the rules.
func Build(ctx context.Context, name string, in BuildInput) (RuleSet, error) {
	b, err := Lookup(name)
	if err != nil {
		return RuleSet{}, err
	}
	req := b.Requirements()
	if req.Generators && !in.HasGenerators {
		if in.ResolveGenerators == nil {
			return RuleSet{}, fmt.Errorf(
				"closedrules: basis %q needs minimal generators, and miner %q does not track generators; mine with close, a-close, titanic or genclose, or opt in with WithGeneratorResolution",
				b.Name(), in.MinerName)
		}
		fc, err := in.ResolveGenerators(ctx)
		if err != nil {
			return RuleSet{}, fmt.Errorf("closedrules: basis %q needs minimal generators and resolving them failed: %w", b.Name(), err)
		}
		in.FC = fc
		in.HasGenerators = true
	}
	if req.Lattice && in.Lattice == nil {
		return RuleSet{}, fmt.Errorf("closedrules: basis %q needs the iceberg lattice, and none is available", b.Name())
	}
	// The negated-AND form also rejects NaN, which passes every
	// ordered comparison.
	if !(in.MinConfidence >= 0 && in.MinConfidence <= 1) {
		return RuleSet{}, fmt.Errorf("closedrules: minConfidence %v outside [0,1]", in.MinConfidence)
	}
	if err := ctx.Err(); err != nil {
		return RuleSet{}, err
	}
	rs, err := b.Build(ctx, in)
	if err != nil {
		return RuleSet{}, err
	}
	rs.Basis = b.Name()
	rs.MinConfidence = in.MinConfidence
	rs.Reduced = in.Reduced
	return rs, nil
}
