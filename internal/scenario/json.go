package scenario

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The hand-written wire format of results and points. AppendJSON and
// Point.AppendJSONFields write byte for byte what encoding/json writes for
// the same values under their struct tags (FuzzResultJSON and the
// registry-wide point test hold them to it), without reflection, so the
// serving and disk-store hot paths encode a result in one pass over its
// fields. The struct tags stay the definition of the format: the CLI,
// dist and checkpoint paths still marshal through encoding/json.

// resultOptional holds the member prefixes of Result's omitempty floats,
// after "y" and "skip", in struct order; Result.optional lists the fields
// in the same order.
var resultOptional = [...]string{
	`,"energy_j":`, `,"latency_s":`, `,"delivery":`, `,"first_death_s":`,
	`,"half_dead_s":`, `,"alive_frac":`, `,"depleted":`, `,"energy_var_j2":`,
}

func (r *Result) optional() [len(resultOptional)]*float64 {
	return [...]*float64{
		&r.EnergyJ, &r.LatencyS, &r.Delivery, &r.FirstDeathS,
		&r.HalfDeadS, &r.AliveFrac, &r.Depleted, &r.EnergyVarJ2,
	}
}

// AppendJSON appends r encoded exactly as json.Marshal(r) encodes it, and
// fails where json.Marshal fails: on a NaN or infinite field.
func (r Result) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"y":`...)
	start := len(b)
	b, err := appendJSONFloat(b, r.Y)
	if err != nil {
		return nil, fmt.Errorf("result y: %w", err)
	}
	// Most scenarios plot one of the triple, so y's digits usually appear
	// twice; equal non-zero floats have equal bits and equal spellings.
	y := b[start:]
	if r.Skip {
		b = append(b, `,"skip":true`...)
	}
	for i, f := range r.optional() {
		switch {
		case *f == 0: // omitempty drops -0 too
			continue
		case *f == r.Y:
			b = append(append(b, resultOptional[i]...), y...)
		default:
			if b, err = appendJSONFloat(append(b, resultOptional[i]...), *f); err != nil {
				return nil, fmt.Errorf("result %s: %w", resultOptional[i][2:len(resultOptional[i])-2], err)
			}
		}
	}
	return append(b, '}'), nil
}

// ParseResultJSON decodes data when it is exactly the encoding AppendJSON
// writes for some Result, and reports false for any other bytes, valid
// JSON included (other field orders, spellings or whitespace). It reads
// the fixed field order directly and accepts only what re-encodes to
// data, so a true result round-trips byte for byte.
func ParseResultJSON(data []byte) (Result, bool) {
	var r Result
	rest, ok := bytes.CutPrefix(data, []byte(`{"y":`))
	if !ok {
		return Result{}, false
	}
	if r.Y, rest, ok = parseJSONFloat(rest); !ok {
		return Result{}, false
	}
	rest, r.Skip = bytes.CutPrefix(rest, []byte(`,"skip":true`))
	for i, f := range r.optional() {
		var present bool
		if rest, present = bytes.CutPrefix(rest, []byte(resultOptional[i])); !present {
			continue
		}
		if *f, rest, ok = parseJSONFloat(rest); !ok {
			return Result{}, false
		}
	}
	if len(rest) != 1 || rest[0] != '}' {
		return Result{}, false
	}
	var buf [512]byte
	canon, err := r.AppendJSON(buf[:0])
	if err != nil || !bytes.Equal(canon, data) {
		return Result{}, false
	}
	return r, true
}

// parseJSONFloat parses the number at the start of b and returns the rest.
func parseJSONFloat(b []byte) (float64, []byte, bool) {
	n := 0
	for n < len(b) && (b[n] >= '0' && b[n] <= '9' || b[n] == '-' || b[n] == '+' || b[n] == '.' || b[n] == 'e') {
		n++
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, b[n:], err == nil
}

// AppendJSONFields appends p's members as encoding/json writes them inside
// an enclosing object: "series", "x" and "params" (null when nil, names
// sorted), without braces. It fails on a NaN or infinite coordinate.
func (p Point) AppendJSONFields(b []byte) ([]byte, error) {
	b = AppendJSONString(append(b, `"series":`...), p.Series)
	b, err := appendJSONFloat(append(b, `,"x":`...), p.X)
	if err != nil {
		return nil, fmt.Errorf("point x: %w", err)
	}
	if p.Params == nil {
		return append(b, `,"params":null`...), nil
	}
	b = append(b, `,"params":{`...)
	var small [8]string
	for i, name := range sortedParamNames(small[:0], p.Params) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(AppendJSONString(b, name), ':')
		if b, err = appendJSONFloat(b, p.Params[name]); err != nil {
			return nil, fmt.Errorf("point param %s: %w", name, err)
		}
	}
	return append(b, '}'), nil
}

// sortedParamNames appends the names of params to names, sorted by
// insertion: a point has a handful of parameters.
func sortedParamNames(names []string, params map[string]float64) []string {
	for name := range params {
		i := len(names)
		names = append(names, name)
		for ; i > 0 && names[i-1] > name; i-- {
			names[i] = names[i-1]
		}
		names[i] = name
	}
	return names
}

// appendJSONFloat appends v as encoding/json spells a float64: the
// shortest decimal that round-trips, in 'f' form, switching to 'e' form
// below 1e-6 and from 1e21 on, with a one-digit negative exponent
// unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("is %v, which JSON cannot encode", v)
	}
	abs := math.Abs(v)
	if abs < 1<<53 && abs == math.Trunc(abs) && !math.Signbit(v) {
		// A whole number below 2^53 is its own shortest spelling.
		return strconv.AppendUint(b, uint64(v), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// AppendJSONString appends s quoted exactly as encoding/json quotes a
// string with its default HTML escaping: '"' and '\\' backslash-escaped,
// control bytes as \b \f \n \r \t or \u00XX, '<' '>' '&' as \u003c
// \u003e \u0026, U+2028 and U+2029 as \u2028 and \u2029, and every
// invalid UTF-8 byte as \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
