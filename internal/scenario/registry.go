package scenario

import (
	"fmt"
	"sort"
	"strings"

	"pbbf/internal/match"
)

// Registry holds the scenarios a binary can run, in registration
// (presentation) order. The zero value is not usable; construct with
// NewRegistry.
type Registry struct {
	order []string
	byID  map[string]Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]Scenario)}
}

// Register validates the scenario and adds it. Duplicate IDs (after
// normalization) and structurally invalid scenarios are rejected.
func (r *Registry) Register(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	id := normalizeID(sc.ID)
	if id != sc.ID {
		return fmt.Errorf("scenario: ID %q not lower-case/trimmed", sc.ID)
	}
	if _, dup := r.byID[id]; dup {
		return fmt.Errorf("scenario: duplicate ID %q", id)
	}
	if len(sc.Protocols) == 0 {
		// Every scenario predating the protocol interface simulates PBBF.
		sc.Protocols = []string{"pbbf"}
	}
	r.byID[id] = sc
	r.order = append(r.order, id)
	return nil
}

// MustRegister is Register for static registration lists; it panics on
// error, which turns a bad registration into a startup failure every test
// run catches.
func (r *Registry) MustRegister(sc Scenario) {
	if err := r.Register(sc); err != nil {
		panic(err)
	}
}

// All returns every scenario in registration order.
func (r *Registry) All() []Scenario {
	out := make([]Scenario, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// Len returns the number of registered scenarios.
func (r *Registry) Len() int { return len(r.order) }

// ByID looks a scenario up, tolerating case and surrounding space. Unknown
// IDs fail with a did-you-mean list of the closest registered IDs (falling
// back to the full listing when nothing is close), so a typo'd
// `pbbf -experiment figg8` exits with an actionable message.
func (r *Registry) ByID(id string) (Scenario, error) {
	if sc, ok := r.byID[normalizeID(id)]; ok {
		return sc, nil
	}
	if close := r.Suggest(id); len(close) > 0 {
		return Scenario{}, fmt.Errorf("scenario: unknown id %q (did you mean %s?)", id, strings.Join(close, ", "))
	}
	ids := make([]string, len(r.order))
	copy(ids, r.order)
	sort.Strings(ids)
	return Scenario{}, fmt.Errorf("scenario: unknown id %q (known: %s)", id, strings.Join(ids, ", "))
}

// Select resolves an experiment selector: "all" is every scenario in
// registration order, anything else the one scenario ByID finds.
func (r *Registry) Select(experiment string) ([]Scenario, error) {
	if experiment == "all" {
		return r.All(), nil
	}
	sc, err := r.ByID(experiment)
	if err != nil {
		return nil, err
	}
	return []Scenario{sc}, nil
}

// Suggest returns up to three registered IDs close to the given (unknown)
// ID, nearest first: prefix matches, then small edit distances. An empty
// slice means nothing plausible is registered. The ranking lives in
// internal/match, shared with the protocol-name lookup so every registry
// in the binary speaks the same did-you-mean dialect.
func (r *Registry) Suggest(id string) []string {
	return match.Closest(normalizeID(id), r.order, 3)
}

func normalizeID(id string) string {
	return strings.ToLower(strings.TrimSpace(id))
}
