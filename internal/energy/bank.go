package energy

import (
	"math"
	"time"
)

// Bank is the struct-of-arrays counterpart of Meter: one energy account per
// node of a simulation, with the per-node clock (since), accumulated joules,
// and radio state each living in its own flat slice. The hot accounting path
// of a large field — thousands of SetState calls per beacon interval —
// then walks dense arrays instead of chasing per-node Meter pointers, and a
// pooled simulation reuses one Bank across runs with a single Init.
//
// The accounting arithmetic is exactly Meter's: every state change closes
// the open interval [since, now) at the old state's power draw. A Bank slot
// and a Meter fed the same state changes report bit-identical joules.
type Bank struct {
	profile Profile
	state   []State
	since   []time.Duration
	joules  []float64
	inState [][Transmit + 1]time.Duration

	// Per-node battery (all-zero slots are infinite batteries).
	capacity []float64
	harvestW []float64
	level    []float64
}

// NewBank returns an empty bank; size it with Init.
func NewBank() *Bank { return &Bank{} }

// Init sizes the bank for n nodes from cfg — every account opens in
// cfg.Initial at cfg.Start with cfg.Budget's battery — reusing the slices
// when capacity allows. Per-node budgets (heterogeneous capacities) are
// applied afterwards with SetBudget.
func (b *Bank) Init(n int, cfg Config) {
	b.profile = cfg.Profile
	if cap(b.state) < n {
		b.state = make([]State, n)
		b.since = make([]time.Duration, n)
		b.joules = make([]float64, n)
		b.inState = make([][Transmit + 1]time.Duration, n)
		b.capacity = make([]float64, n)
		b.harvestW = make([]float64, n)
		b.level = make([]float64, n)
	} else {
		b.state = b.state[:n]
		b.since = b.since[:n]
		b.joules = b.joules[:n]
		b.inState = b.inState[:n]
		b.capacity = b.capacity[:n]
		b.harvestW = b.harvestW[:n]
		b.level = b.level[:n]
	}
	for i := 0; i < n; i++ {
		b.state[i] = cfg.Initial
		b.since[i] = cfg.Start
		b.capacity[i] = cfg.Budget.CapacityJ
		b.harvestW[i] = cfg.Budget.HarvestW
		b.level[i] = cfg.Budget.CapacityJ
	}
	clear(b.joules)
	clear(b.inState)
}

// SetBudget replaces node i's battery budget, recharged to full. Call it
// after Init and before the account accrues — typically while constructing
// a fleet with per-node jittered capacities.
func (b *Bank) SetBudget(i int, bg Budget) {
	b.capacity[i] = bg.CapacityJ
	b.harvestW[i] = bg.HarvestW
	b.level[i] = bg.CapacityJ
}

// N returns the number of accounts.
func (b *Bank) N() int { return len(b.state) }

// Profile returns the shared power profile.
func (b *Bank) Profile() Profile { return b.profile }

// State returns node i's current radio state.
func (b *Bank) State(i int) State { return b.state[i] }

// SetState closes node i's current state interval at time now and switches
// to s — Meter.SetState on the slot.
func (b *Bank) SetState(i int, s State, now time.Duration) {
	b.accrue(i, now)
	b.state[i] = s
}

// accrue charges node i's open interval [since, now) to its current state.
func (b *Bank) accrue(i int, now time.Duration) {
	if now < b.since[i] {
		// Events at identical timestamps can arrive in callback order that
		// appears to go "backwards" by zero; true regressions are bugs.
		now = b.since[i]
	}
	dt := now - b.since[i]
	power := b.profile.Power(b.state[i])
	b.joules[i] += power * dt.Seconds()
	if b.capacity[i] > 0 {
		b.level[i] = charge(b.level[i], b.capacity[i], b.harvestW[i], power, dt.Seconds())
	}
	if s := b.state[i]; s >= Sleep && s <= Transmit {
		b.inState[i][s] += dt
	}
	b.since[i] = now
}

// Finite reports whether node i's battery can run out.
func (b *Bank) Finite(i int) bool { return b.capacity[i] > 0 }

// RemainingAt returns node i's battery charge in joules at time now,
// including the currently open interval (clamped at capacity); +Inf for an
// infinite battery.
func (b *Bank) RemainingAt(i int, now time.Duration) float64 {
	if b.capacity[i] == 0 {
		return math.Inf(1)
	}
	return charge(b.level[i], b.capacity[i], b.harvestW[i], b.profile.Power(b.state[i]),
		(now - b.since[i]).Seconds())
}

// Depleted reports whether node i's finite battery has run out by time now.
func (b *Bank) Depleted(i int, now time.Duration) bool {
	return b.capacity[i] > 0 && b.RemainingAt(i, now) <= 0
}

// EnergyAt returns node i's total joules consumed up to time now, including
// the currently open interval.
func (b *Bank) EnergyAt(i int, now time.Duration) float64 {
	return b.joules[i] + b.profile.Power(b.state[i])*(now-b.since[i]).Seconds()
}

// Joules returns node i's joules accumulated through the last closed
// interval — the cheap accessor trace instrumentation reads after a
// SetState call, when the open interval contributes nothing yet.
func (b *Bank) Joules(i int) float64 { return b.joules[i] }

// TimeIn returns node i's closed-interval time spent in state s.
func (b *Bank) TimeIn(i int, s State) time.Duration {
	if s < Sleep || s > Transmit {
		return 0
	}
	return b.inState[i][s]
}

// Finish closes node i's open interval at time now.
func (b *Bank) Finish(i int, now time.Duration) {
	b.accrue(i, now)
}
