package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzResultJSON ties the hand-written encoder to encoding/json: for any
// ten Result fields, AppendJSON writes exactly json.Marshal's bytes and
// fails exactly when it fails, ParseResultJSON reads those bytes back to
// the same result, and it accepts no other bytes (data) than the
// encoding of the result they decode to. The series string drives
// AppendJSONString and Point.AppendJSONFields the same way. The seeds
// cover zeros, -0, subnormals, both exponent switches, whole numbers
// around 2^53, repeats of y, NaN and both infinities.
func FuzzResultJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("PBBF <p&q>", 0.0, negZero, 5e-324, 1e-7, 1e21, 1e-6, 9.999999e-7, 1e20, 2.2250738585072014e-308, false, []byte(`{"y":0}`))
	f.Add("PSM (p=0, q=0.3±spread)", negZero, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, true, []byte(`{"y":-0,"skip":true}`))
	f.Add("line \x00\xff", math.NaN(), 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, false, []byte(`{"y":1e-07}`))
	f.Add("tab\t\"q\"\\", math.Inf(1), math.Inf(-1), 0.5, -1e300, 1e-300, 123456789.0, 0.1, -0.25, 1e22, false, []byte(`{"y":1, "delivery":1}`))
	f.Add("", 1e21, 1e-6, 1.5e-323, -5e-324, 0.30162962218822925, 9.32990078701668, 0.9997222222222222, 18.030074627973182, 1.0, false, []byte(`{"y":1,"energy_j":0}`))
	f.Add("k=4", 8.0, 12.0, 1.0, 9007199254740991.0, 9007199254740992.0, -7.0, 1e15, 0.5, 8.0, false, []byte(`{"y":8,"energy_j":12}`))
	f.Fuzz(func(t *testing.T, series string, y, energy, latency, delivery, firstDeath, halfDead, alive, depleted, energyVar float64, skip bool, data []byte) {
		r := Result{
			Y: y, Skip: skip, EnergyJ: energy, LatencyS: latency, Delivery: delivery,
			FirstDeathS: firstDeath, HalfDeadS: halfDead, AliveFrac: alive, Depleted: depleted, EnergyVarJ2: energyVar,
		}
		want, wantErr := json.Marshal(r)
		got, err := r.AppendJSON(nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendJSON\n  %s\njson.Marshal\n  %s", got, want)
			}
			back, ok := ParseResultJSON(got)
			if !ok {
				t.Fatalf("ParseResultJSON rejected %s", got)
			}
			if back != r {
				t.Fatalf("round trip %+v -> %s -> %+v", r, got, back)
			}
		}

		// Any bytes the strict parse accepts are the canonical encoding
		// of what they decode to, and decode to it under encoding/json too.
		if back, ok := ParseResultJSON(data); ok {
			canon, err := back.AppendJSON(nil)
			if err != nil || !bytes.Equal(canon, data) {
				t.Fatalf("ParseResultJSON accepted %q, which re-encodes to %q (%v)", data, canon, err)
			}
			var viaJSON Result
			if err := json.Unmarshal(data, &viaJSON); err != nil || viaJSON != back {
				t.Fatalf("ParseResultJSON(%q) = %+v, json.Unmarshal = %+v (%v)", data, back, viaJSON, err)
			}
		}

		wantStr, _ := json.Marshal(series)
		if gotStr := AppendJSONString(nil, series); !bytes.Equal(gotStr, wantStr) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", series, gotStr, wantStr)
		}
		for _, params := range []map[string]float64{nil, {}, {series: energy, "p": latency, "<q>": y}} {
			pt := Point{Series: series, X: delivery, Params: params}
			wantPt, wantErr := json.Marshal(pt)
			gotPt, err := pt.AppendJSONFields([]byte{'{'})
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("AppendJSONFields error %v, json.Marshal error %v", err, wantErr)
			}
			if err == nil && !bytes.Equal(append(gotPt, '}'), wantPt) {
				t.Fatalf("AppendJSONFields\n  %s}\njson.Marshal\n  %s", gotPt, wantPt)
			}
		}
	})
}

// TestResultJSONFieldOrder pins the encoder's field table to Result's
// struct tags: a field added to Result without extending the table (or
// tagged in a different order) fails here, before any fuzzing.
func TestResultJSONFieldOrder(t *testing.T) {
	typ := reflect.TypeFor[Result]()
	var tags []string
	for i := range typ.NumField() {
		tags = append(tags, typ.Field(i).Tag.Get("json"))
	}
	want := []string{"y", "skip,omitempty"}
	for _, member := range resultOptional {
		want = append(want, strings.Trim(member, `,":`)+",omitempty")
	}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("Result tags %q, encoder table %q", tags, want)
	}
}

// TestParseResultJSONRejectsNonCanonical: valid JSON for a result that
// is not byte for byte its canonical encoding is refused.
func TestParseResultJSONRejectsNonCanonical(t *testing.T) {
	for _, data := range []string{
		`{"y":1,"delivery":1,"energy_j":2}`, // field order
		`{"y":1,"energy_j":0}`,              // zero not omitted
		`{"y":1,"skip":false}`,              // false not omitted
		`{"y":1e-07}`,                       // padded exponent
		`{"y":1.0}`,                         // not the shortest spelling
		`{"y":1E-7}`,                        // upper-case exponent
		`{"y": 1}`,                          // whitespace
		`{"y":1}` + "\n",                    // trailing byte
		`{"y":1e400}`,                       // overflows
		`{"y":NaN}`,                         // no such JSON number
		`{"y":1,"bogus":2}`,                 // unknown member
		`{"y":}`,
		`{"y":1`,
		``,
	} {
		if r, ok := ParseResultJSON([]byte(data)); ok {
			t.Errorf("ParseResultJSON(%q) accepted it as %+v", data, r)
		}
	}
	for _, data := range []string{`{"y":1e-7}`, `{"y":-0}`, `{"y":0,"skip":true,"energy_var_j2":1e+21}`} {
		if _, ok := ParseResultJSON([]byte(data)); !ok {
			t.Errorf("ParseResultJSON(%q) refused a canonical encoding", data)
		}
	}
}

// TestResultJSONAllocs: encoding into a sized buffer and the strict
// parse allocate nothing.
func TestResultJSONAllocs(t *testing.T) {
	r := Result{Y: 0.30162962218822925, EnergyJ: 1e-7, LatencyS: 9.32990078701668, Delivery: 1, EnergyVarJ2: 1e21}
	pt := Point{Series: "PBBF <p&q>", X: 0.25, Params: map[string]float64{"p": 0.05, "q": 0.25, "delta": 10}}
	buf := make([]byte, 0, 512)
	data, _ := r.AppendJSON(nil)
	allocs := testing.AllocsPerRun(100, func() {
		b, _ := r.AppendJSON(buf[:0])
		b, _ = pt.AppendJSONFields(b)
		if _, ok := ParseResultJSON(data); !ok || len(b) == 0 {
			t.Fatal("round trip failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("encode and parse allocated %v times, want 0", allocs)
	}
}
