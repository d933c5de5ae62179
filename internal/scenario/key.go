package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// PointKey returns the canonical content address of one computed point:
// the scenario ID, the complete scale (including the seed), and the
// point's series, x, and full parameter assignment with sorted keys. Two
// identical keys denote the same pure computation — RunPoint derives all
// randomness from the scale seed and the point's parameters — so the key
// is safe to use for cross-request result caching and resumable
// checkpoints.
// Callers keying many points of one scale should mint them from one
// Keyer instead, which serializes the scale once.
func PointKey(scenarioID string, s Scale, pt Point) string {
	return NewKeyer(s).Key(scenarioID, pt)
}

// Keyer mints the PointKeys of one scale. The scale segment is most of a
// key's bytes and the same for every point of a run, so NewKeyer
// serializes it once and Key appends only the scenario ID and the point's
// coordinates. A Keyer is immutable and safe for concurrent use.
type Keyer struct {
	scale string // the scale segment, "grid=..." through seed/protocol/energy
}

// NewKeyer serializes the scale segment of s's keys.
func NewKeyer(s Scale) Keyer {
	var buf [256]byte
	return Keyer{scale: string(appendScaleKey(buf[:0], s))}
}

// Key returns PointKey(scenarioID, s, pt) for the scale s the Keyer was
// built from.
func (k Keyer) Key(scenarioID string, pt Point) string {
	var buf [384]byte
	b := append(buf[:0], scenarioID...)
	b = append(b, '|')
	b = append(b, k.scale...)
	b = append(b, "|series="...)
	b = append(b, pt.Series...)
	b = appendFloat(append(b, "|x="...), pt.X)
	if len(pt.Params) > 0 {
		b = appendSortedParams(append(b, '|'), pt.Params, '|')
	}
	return string(b)
}

// appendSortedParams renders a parameter assignment as name=value pairs in
// sorted-name order, separated by sep. It is the one rendering shared by
// PointKey (cache/checkpoint identity) and Point.Label (error and
// progress messages), so a reported point always names the same identity
// its cached result is stored under.
func appendSortedParams(b []byte, params map[string]float64, sep byte) []byte {
	var small [8]string
	for i, name := range sortedParamNames(small[:0], params) {
		if i > 0 {
			b = append(b, sep)
		}
		b = append(b, name...)
		b = appendFloat(append(b, '='), params[name])
	}
	return b
}

// appendScaleKey serializes every Scale field in a fixed order. The
// scaleKeyFields test constant pins the field count so adding a Scale
// dimension without extending this serialization fails the build's tests
// instead of silently aliasing distinct workloads to one key.
func appendScaleKey(b []byte, s Scale) []byte {
	b = strconv.AppendInt(append(b, "grid="...), int64(s.GridW), 10)
	b = strconv.AppendInt(append(b, 'x'), int64(s.GridH), 10)
	b = strconv.AppendInt(append(b, "|iu="...), int64(s.IdealUpdates), 10)
	b = strconv.AppendInt(append(b, "|pt="...), int64(s.PercTrials), 10)
	b = appendInts(append(b, "|pg="...), s.PercGrids)
	b = strconv.AppendInt(append(b, "|nn="...), int64(s.NetNodes), 10)
	b = strconv.AppendInt(append(b, "|nr="...), int64(s.NetRuns), 10)
	b = strconv.AppendInt(append(b, "|nd="...), s.NetDuration.Nanoseconds(), 10)
	b = appendFloats(append(b, "|q="...), s.QSweep)
	b = appendFloats(append(b, "|pi="...), s.PSweepIdeal)
	b = appendFloats(append(b, "|pn="...), s.PSweepNet)
	b = appendFloats(append(b, "|ds="...), s.DeltaSweep)
	b = strconv.AppendInt(append(b, "|hop="...), int64(s.HopNear), 10)
	b = strconv.AppendInt(append(b, ','), int64(s.HopFar), 10)
	b = appendInts(append(b, "|nth="...), s.NetTrackHops)
	b = appendFloats(append(b, "|duty="...), s.DutySweep)
	b = strconv.AppendUint(append(b, "|seed="...), s.Seed, 10)
	// The protocol field is omitted when empty (= PBBF, the default) so
	// every key minted before protocols existed stays byte-identical to the
	// key the same workload derives today. Callers canonicalize "pbbf" to
	// empty before keying (protocol.Spec.Canonical); a literal "pbbf" here
	// would mint a second identity for the same computation.
	if s.Protocol != "" {
		b = append(append(b, "|proto="...), s.Protocol...)
	}
	// The energy fields follow the same omit-when-default rule: an
	// infinite-battery workload (the only kind that existed before finite
	// energy) keys exactly as it always did.
	if s.EnergyJ != 0 {
		b = appendFloat(append(b, "|energy="...), s.EnergyJ)
	}
	if s.HarvestW != 0 {
		b = appendFloat(append(b, "|harvest="...), s.HarvestW)
	}
	return b
}

// scaleKeyFields is the number of Scale fields appendScaleKey serializes.
const scaleKeyFields = 20

// SplitKey decomposes a canonical PointKey into its three segments: the
// scenario ID, the scale serialization (everything from the grid field up
// to the seed/protocol), and the point coordinates (series, x, parameters).
// It is the inverse boundary walk of PointKey's construction and exists so
// stored records can carry the scenario ID and scale redundantly and
// self-verify them against the key they claim to belong to (internal/store
// quarantines records where the segments disagree).
func SplitKey(key string) (scenarioID, scaleKey, pointKey string, err error) {
	bar := strings.IndexByte(key, '|')
	if bar <= 0 {
		return "", "", "", fmt.Errorf("scenario: key %q has no scale segment", key)
	}
	scenarioID, rest := key[:bar], key[bar+1:]
	// The scale segment always starts at "grid=" and the point segment at
	// "|series=": appendScaleKey emits grid first, PointKey emits series
	// first, and neither marker can occur earlier (scale field names are
	// fixed, and the scenario ID cannot contain '|').
	if !strings.HasPrefix(rest, "grid=") {
		return "", "", "", fmt.Errorf("scenario: key %q: scale segment does not start at grid=", key)
	}
	sep := strings.Index(rest, "|series=")
	if sep < 0 {
		return "", "", "", fmt.Errorf("scenario: key %q has no point segment", key)
	}
	return scenarioID, rest[:sep], rest[sep+1:], nil
}

func appendInts(b []byte, vs []int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

func appendFloats(b []byte, vs []float64) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return b
}

// appendFloat renders v in the shortest form that parses back to it: the
// spelling of fmt's %g, which every stored key was minted with.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
