package admit

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/explain"
)

// jsonOracle is the encoding the admit route produced before appendResult:
// json.Encoder with HTML escaping off.
func jsonOracle(tb testing.TB, v any) ([]byte, error) {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func checkResultJSON(t *testing.T, res Result) {
	t.Helper()
	want, werr := jsonOracle(t, res)
	got, gerr := appendResult(nil, &res)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("error mismatch: appendResult %v, encoding/json %v", gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("encoding diverged\n got %s\nwant %s", got, want)
	}
}

// fillNonZero sets every field reachable from v (through pointers and
// one-element slices) to a non-zero value, so an encoder that forgets a
// field — or a field added to Result or the explain evidence types without
// an encoder change — shows up as a byte difference.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint64:
		v.SetUint(9)
	case reflect.Float64:
		v.SetFloat(0.125)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNonZero(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(v.Field(i))
		}
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

func TestResultJSONCoversEveryField(t *testing.T) {
	var res Result
	fillNonZero(reflect.ValueOf(&res).Elem())
	checkResultJSON(t, res)
	checkResultJSON(t, Result{})
	checkResultJSON(t, Result{Accepted: true, Handle: 3, Proc: 1, Response: 40})
	checkResultJSON(t, Result{Proc: -1, Evidence: []ProcEvidence{{Detail: &explain.ProcEvidence{}}}})
}

func TestResultJSONNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkResultJSON(t, Result{Evidence: []ProcEvidence{{Utilization: f}}})
		checkResultJSON(t, Result{Evidence: []ProcEvidence{{Detail: &explain.ProcEvidence{ThresholdRoom: f}}}})
	}
}

// FuzzResultJSON pins appendResult to encoding/json byte for byte over
// arbitrary names, reasons and causes (quotes, control bytes, invalid
// UTF-8, U+2028/U+2029) and floats across the exponent-notation cutoffs.
func FuzzResultJSON(f *testing.F) {
	f.Add("rta-deadline-miss", "exact RTA proves a deadline miss for \"a\\b\"(3/10) on every processor", "fits\n\t\x01\x7f",
		int64(5), uint64(0), 0.5, -0.25, 1e-7, 1e21, true)
	f.Add("bad\xffutf8", "line\u2028sep\u2029", "<&>", int64(-1), uint64(1<<63), 5e-324, math.MaxFloat64, -1e-6, 123456789.0, false)
	f.Add("", "", "", int64(0), uint64(0), 0.0, math.Copysign(0, -1), 9.999999e20, 1e-300, false)
	f.Fuzz(func(t *testing.T, cause, reason, verdict string, n int64, handle uint64, u, room, uroom, x float64, flag bool) {
		blocked := &explain.BlockedResident{Task: int(n), Part: 1, C: n, Deadline: n + 1, Response: n * 3, Verdict: verdict}
		res := Result{
			Accepted:    flag,
			Handle:      handle,
			Proc:        int(n),
			Response:    n,
			Cause:       cause,
			CauseDetail: verdict,
			Reason:      reason,
			Evidence: []ProcEvidence{
				{Proc: 0, Utilization: u, Residents: int(n), Detail: &explain.ProcEvidence{
					OwnResponse: n, OwnVerdict: verdict, Blocked: blocked,
				}},
				{Proc: 1, Utilization: x, Detail: &explain.ProcEvidence{
					ThresholdRoom: room, HasThreshold: flag, MaxPortion: n, HasMaxPortion: !flag,
					UtilizationRoom: uroom, HasUtilization: flag,
				}},
				{Proc: 2, Utilization: room},
			},
		}
		checkResultJSON(t, res)
		res.Evidence = res.Evidence[:0]
		checkResultJSON(t, res)
	})
}
