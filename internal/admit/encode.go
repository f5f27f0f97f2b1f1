package admit

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/explain"
)

// Reflection-free verdict encoding. Every admission answer is a Result, and
// an analyzed rejection carries M per-processor evidence records (6.4 KB on
// a 32-processor cluster), so the admit route encodes it by hand instead of
// through encoding/json's reflection walk. The output is exactly what
// json.Encoder with SetEscapeHTML(false) writes for the same value — field
// order, omitempty, string escaping, ES6 float formatting and the trailing
// newline — which FuzzResultJSON pins byte for byte.

// errNonFinite mirrors encoding/json's refusal to encode NaN and ±Inf.
var errNonFinite = errors.New("admit: non-finite float in result")

// appendResult appends res's JSON encoding plus a newline to dst.
func appendResult(dst []byte, res *Result) ([]byte, error) {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendBool(dst, res.Accepted)
	if res.Handle != 0 {
		dst = append(dst, `,"handle":`...)
		dst = strconv.AppendUint(dst, res.Handle, 10)
	}
	dst = append(dst, `,"proc":`...)
	dst = strconv.AppendInt(dst, int64(res.Proc), 10)
	if res.Response != 0 {
		dst = append(dst, `,"response":`...)
		dst = strconv.AppendInt(dst, res.Response, 10)
	}
	dst = appendStringField(dst, `,"cause":`, res.Cause)
	dst = appendStringField(dst, `,"causeDetail":`, res.CauseDetail)
	dst = appendStringField(dst, `,"reason":`, res.Reason)
	if len(res.Evidence) > 0 {
		dst = append(dst, `,"evidence":[`...)
		for i := range res.Evidence {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendProcEvidence(dst, &res.Evidence[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

func appendProcEvidence(dst []byte, pe *ProcEvidence) ([]byte, error) {
	dst = append(dst, `{"proc":`...)
	dst = strconv.AppendInt(dst, int64(pe.Proc), 10)
	dst = append(dst, `,"u":`...)
	dst, err := appendFloat(dst, pe.Utilization)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"residents":`...)
	dst = strconv.AppendInt(dst, int64(pe.Residents), 10)
	if d := pe.Detail; d != nil {
		dst = append(dst, `,"detail":`...)
		if dst, err = appendDetail(dst, d); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendDetail encodes an explain.ProcEvidence, whose fields are all
// omitempty, so the separator depends on whether anything came before.
func appendDetail(dst []byte, d *explain.ProcEvidence) ([]byte, error) {
	dst = append(dst, '{')
	open := len(dst)
	if d.OwnResponse != 0 {
		dst = appendKey(dst, open, `"ownResponse":`)
		dst = strconv.AppendInt(dst, d.OwnResponse, 10)
	}
	if d.OwnVerdict != "" {
		dst = appendKey(dst, open, `"ownVerdict":`)
		dst = appendString(dst, d.OwnVerdict)
	}
	if b := d.Blocked; b != nil {
		dst = appendKey(dst, open, `"blocked":{"task":`)
		dst = strconv.AppendInt(dst, int64(b.Task), 10)
		dst = append(dst, `,"part":`...)
		dst = strconv.AppendInt(dst, int64(b.Part), 10)
		dst = append(dst, `,"c":`...)
		dst = strconv.AppendInt(dst, b.C, 10)
		dst = append(dst, `,"deadline":`...)
		dst = strconv.AppendInt(dst, b.Deadline, 10)
		dst = append(dst, `,"response":`...)
		dst = strconv.AppendInt(dst, b.Response, 10)
		dst = append(dst, `,"verdict":`...)
		dst = appendString(dst, b.Verdict)
		dst = append(dst, '}')
	}
	if d.MaxPortion != 0 {
		dst = appendKey(dst, open, `"maxPortion":`)
		dst = strconv.AppendInt(dst, d.MaxPortion, 10)
	}
	if d.HasMaxPortion {
		dst = appendKey(dst, open, `"hasMaxPortion":true`)
	}
	var err error
	if d.ThresholdRoom != 0 {
		dst = appendKey(dst, open, `"thresholdRoom":`)
		if dst, err = appendFloat(dst, d.ThresholdRoom); err != nil {
			return dst, err
		}
	}
	if d.HasThreshold {
		dst = appendKey(dst, open, `"hasThreshold":true`)
	}
	if d.UtilizationRoom != 0 {
		dst = appendKey(dst, open, `"utilizationRoom":`)
		if dst, err = appendFloat(dst, d.UtilizationRoom); err != nil {
			return dst, err
		}
	}
	if d.HasUtilization {
		dst = appendKey(dst, open, `"hasUtilization":true`)
	}
	return append(dst, '}'), nil
}

// appendKey appends an object key, preceded by a comma unless it is the
// first member after the object's opening brace at offset open.
func appendKey(dst []byte, open int, key string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendFloat formats f as encoding/json does: the shortest round-trip
// form, in exponent notation below 1e-6 and at or above 1e21, with the
// exponent's leading zero dropped (e-07 → e-7).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errNonFinite
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping off:
// '"' and '\\' and control bytes escaped, invalid UTF-8 replaced by
// \ufffd, and U+2028/U+2029 escaped for JSONP safety.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
