package energy

import (
	"math"
	"time"
)

// Bank holds one energy account per node of a simulation: the per-node
// clock (since), accumulated joules, radio state, per-state times and
// battery of each node live together in one record, so an accrual touches
// one or two cache lines of a flat slice instead of chasing per-node Meter
// pointers or visiting one array per field. A pooled simulation reuses one
// Bank across runs with a single Init.
//
// The accounting arithmetic is exactly Meter's: every state change closes
// the open interval [since, now) at the old state's power draw. A Bank slot
// and a Meter fed the same state changes report bit-identical joules.
type Bank struct {
	profile  Profile
	accounts []account
	// secs memoizes the two most recently used interval lengths in
	// seconds, most recent first: dt.Seconds() divides in floating point,
	// and a beacon closes one of two intervals on node after node, a
	// sleeper's since the last beacon and an awake node's since its last
	// switch, in alternation.
	secs [2]seconds
}

// seconds is one memoized dt.Seconds().
type seconds struct {
	dt   time.Duration
	secs float64
}

// account is one node's slot: Meter's fields without the shared profile.
// All-zero battery fields are an infinite battery.
type account struct {
	state    State
	since    time.Duration
	joules   float64
	capacity float64
	harvestW float64
	level    float64
	inState  [Transmit + 1]time.Duration
}

// NewBank returns an empty bank; size it with Init.
func NewBank() *Bank { return &Bank{} }

// Init sizes the bank for n nodes from cfg — every account opens in
// cfg.Initial at cfg.Start with cfg.Budget's battery — reusing the slice
// when capacity allows. Per-node budgets (heterogeneous capacities) are
// applied afterwards with SetBudget.
func (b *Bank) Init(n int, cfg Config) {
	b.profile = cfg.Profile
	if cap(b.accounts) < n {
		b.accounts = make([]account, n)
	} else {
		b.accounts = b.accounts[:n]
	}
	for i := range b.accounts {
		b.accounts[i] = account{
			state:    cfg.Initial,
			since:    cfg.Start,
			capacity: cfg.Budget.CapacityJ,
			harvestW: cfg.Budget.HarvestW,
			level:    cfg.Budget.CapacityJ,
		}
	}
}

// SetBudget replaces node i's battery budget, recharged to full. Call it
// after Init and before the account accrues — typically while constructing
// a fleet with per-node jittered capacities.
func (b *Bank) SetBudget(i int, bg Budget) {
	a := &b.accounts[i]
	a.capacity = bg.CapacityJ
	a.harvestW = bg.HarvestW
	a.level = bg.CapacityJ
}

// SetState closes node i's current state interval at time now and switches
// to s — Meter.SetState on the slot.
func (b *Bank) SetState(i int, s State, now time.Duration) {
	a := &b.accounts[i]
	b.accrue(a, now)
	a.state = s
}

// accrue charges account a's open interval [since, now) to its current
// state.
func (b *Bank) accrue(a *account, now time.Duration) {
	if now < a.since {
		// Events at identical timestamps can arrive in callback order that
		// appears to go "backwards" by zero; true regressions are bugs.
		now = a.since
	}
	dt := now - a.since
	var secs float64
	switch dt {
	case b.secs[0].dt:
		secs = b.secs[0].secs
	case b.secs[1].dt:
		secs = b.secs[1].secs
		b.secs[0], b.secs[1] = b.secs[1], b.secs[0]
	default:
		secs = dt.Seconds()
		b.secs[1], b.secs[0] = b.secs[0], seconds{dt, secs}
	}
	power := b.profile.Power(a.state)
	a.joules += power * secs
	if a.capacity > 0 {
		a.level = charge(a.level, a.capacity, a.harvestW, power, secs)
	}
	if s := a.state; s >= Sleep && s <= Transmit {
		a.inState[s] += dt
	}
	a.since = now
}

// Finite reports whether node i's battery can run out.
func (b *Bank) Finite(i int) bool { return b.accounts[i].capacity > 0 }

// RemainingAt returns node i's battery charge in joules at time now,
// including the currently open interval (clamped at capacity); +Inf for an
// infinite battery.
func (b *Bank) RemainingAt(i int, now time.Duration) float64 {
	a := &b.accounts[i]
	if a.capacity == 0 {
		return math.Inf(1)
	}
	return charge(a.level, a.capacity, a.harvestW, b.profile.Power(a.state),
		(now - a.since).Seconds())
}

// Depleted reports whether node i's finite battery has run out by time now.
func (b *Bank) Depleted(i int, now time.Duration) bool {
	return b.accounts[i].capacity > 0 && b.RemainingAt(i, now) <= 0
}

// EnergyAt returns node i's total joules consumed up to time now, including
// the currently open interval.
func (b *Bank) EnergyAt(i int, now time.Duration) float64 {
	a := &b.accounts[i]
	return a.joules + b.profile.Power(a.state)*(now-a.since).Seconds()
}

// Joules returns node i's joules accumulated through the last closed
// interval — the cheap accessor trace instrumentation reads after a
// SetState call, when the open interval contributes nothing yet.
func (b *Bank) Joules(i int) float64 { return b.accounts[i].joules }

// TimeIn returns node i's closed-interval time spent in state s.
func (b *Bank) TimeIn(i int, s State) time.Duration {
	if s < Sleep || s > Transmit {
		return 0
	}
	return b.accounts[i].inState[s]
}

// Finish closes node i's open interval at time now.
func (b *Bank) Finish(i int, now time.Duration) {
	b.accrue(&b.accounts[i], now)
}
