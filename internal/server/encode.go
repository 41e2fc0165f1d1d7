package server

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Hand-rolled response encoders for the hot GET/POST surfaces. The
// response shapes are fixed structs, so reflection buys nothing but
// allocations; these append-based encoders write into pooled scratch
// and are pinned byte-identical to json.MarshalIndent(v, "", "  ") by
// differential tests (TestEncodersMatchStdlib) and a differential fuzz
// target (FuzzResponseEncoding). Every formatting quirk of
// encoding/json is reproduced deliberately:
//
//   - floats use strconv 'f' shortest form unless |v| < 1e-6 or
//     |v| >= 1e21, which switch to 'e' with the stdlib's "e-09"→"e-9"
//     exponent cleanup;
//   - strings are escaped with HTML escaping on ('<', '>', '&' become
//     \u003c, \u003e, \u0026), control characters become \u00XX except
//     the short escapes \b, \f, \n, \r, \t, U+2028/U+2029 are escaped,
//     and invalid UTF-8 becomes the \ufffd escape;
//   - NaN and ±Inf are errors, matching json.UnsupportedValueError
//     text;
//   - indentation is two spaces per level with MarshalIndent's
//     newline placement (empty arrays stay "[]" on one line).

// encBufPool recycles encoder scratch buffers across requests. Encoded
// bodies that outlive the request (they enter the result cache) are
// copied out to exact-size slices; the scratch always returns to the
// pool.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 8<<10)
	return &b
}}

// hexDigits is the nibble alphabet shared by the string escaper and
// the request-hash header formatter.
const hexDigits = "0123456789abcdef"

// appendHash appends key as 16 lowercase hex digits (the
// X-Request-Hash wire format, fmt "%016x").
func appendHash(b []byte, key uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[(key>>uint(shift))&0xf])
	}
	return b
}

// unsupportedValueError mirrors json.UnsupportedValueError for the
// non-finite floats JSON cannot carry.
type unsupportedValueError struct{ v float64 }

// Error implements the error interface with encoding/json's text.
func (e *unsupportedValueError) Error() string {
	return fmt.Sprintf("json: unsupported value: %s", strconv.FormatFloat(e.v, 'g', -1, 64))
}

// appendJSONFloat appends f exactly as encoding/json renders a float64,
// or returns an error for NaN/±Inf.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &unsupportedValueError{v: f}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims the padded single-digit exponent:
		// "1e-09" renders as "1e-9" (positive exponents keep "e+21").
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s as a quoted JSON string with
// encoding/json's default (HTML-escaping) rules.
func appendJSONString(b []byte, s string) []byte {
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
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	b = append(b, '"')
	return b
}

// jsonEnc builds MarshalIndent(…, "", "  ")-shaped JSON into buf.
// Containers nest via open/close; elem/field place commas, newlines,
// and indentation exactly where the stdlib indenter does. The first
// float error sticks and the finished buffer is discarded.
type jsonEnc struct {
	buf   []byte
	depth int
	first bool // next elem is its container's first (no comma)
	err   error
}

// nl starts a new line at the current indentation.
func (e *jsonEnc) nl() {
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

// open begins a container ('{' or '[').
func (e *jsonEnc) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.first = true
}

// close ends a container ('}' or ']'); empty containers close on the
// same line, as the stdlib indenter leaves them.
func (e *jsonEnc) close(c byte) {
	e.depth--
	if !e.first {
		e.nl()
	}
	e.buf = append(e.buf, c)
	e.first = false
}

// elem starts the next array element or object member: comma unless
// first, then newline plus indent.
func (e *jsonEnc) elem() {
	if e.first {
		e.first = false
	} else {
		e.buf = append(e.buf, ',')
	}
	e.nl()
}

// field starts the named object member. Field names are trusted ASCII
// literals, so they skip the escaper.
func (e *jsonEnc) field(name string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':', ' ')
}

// str appends a string value.
func (e *jsonEnc) str(s string) { e.buf = appendJSONString(e.buf, s) }

// num appends a float value, latching the first NaN/Inf error.
func (e *jsonEnc) num(f float64) {
	b, err := appendJSONFloat(e.buf, f)
	e.buf = b
	if err != nil && e.err == nil {
		e.err = err
	}
}

// boolean appends a bool value.
func (e *jsonEnc) boolean(v bool) {
	if v {
		e.buf = append(e.buf, "true"...)
	} else {
		e.buf = append(e.buf, "false"...)
	}
}

// machineSummary appends one GET /v1/machines catalog row.
func (e *jsonEnc) machineSummary(m *machineSummary) {
	e.open('{')
	e.field("key")
	e.str(m.Key)
	e.field("name")
	e.str(m.Name)
	e.field("bandwidth_bytes_per_s")
	e.num(m.Bandwidth)
	e.field("peak_flops_single")
	e.num(m.PeakFlopsSingle)
	e.field("peak_flops_double")
	e.num(m.PeakFlopsDouble)
	e.field("balance_time_double")
	e.num(m.BalanceTime)
	e.field("balance_energy_double")
	e.num(m.BalanceEnergy)
	e.field("half_efficiency_intensity_double")
	e.num(m.HalfEfficiency)
	e.field("race_to_halt_effective_double")
	e.boolean(m.RaceToHalt)
	e.close('}')
}

// modelSummary appends one GET /v1/models registry row.
func (e *jsonEnc) modelSummary(m *modelSummary) {
	e.open('{')
	e.field("name")
	e.str(m.Name)
	e.field("default")
	e.boolean(m.Default)
	e.field("description")
	e.str(m.Description)
	e.close('}')
}

// finish seals the encoded body (trailing newline, like every response
// writer here appends after MarshalIndent) and copies it out of the
// pooled scratch into an exact-size slice safe to cache indefinitely.
func (e *jsonEnc) finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.buf = append(e.buf, '\n')
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out, nil
}

// encodeWith runs build inside a pooled encoder and returns the sealed
// body.
func encodeWith(build func(e *jsonEnc)) ([]byte, error) {
	bp := encBufPool.Get().(*[]byte)
	e := jsonEnc{buf: (*bp)[:0]}
	build(&e)
	out, err := e.finish()
	*bp = e.buf[:0]
	encBufPool.Put(bp)
	return out, err
}

// encodeMachines renders the GET /v1/machines body: {"machines": [...]}.
func encodeMachines(rows []machineSummary) ([]byte, error) {
	return encodeWith(func(e *jsonEnc) {
		e.open('{')
		e.field("machines")
		e.open('[')
		for i := range rows {
			e.elem()
			e.machineSummary(&rows[i])
		}
		e.close(']')
		e.close('}')
	})
}

// encodeModels renders the GET /v1/models body: {"models": [...]}.
func encodeModels(rows []modelSummary) ([]byte, error) {
	return encodeWith(func(e *jsonEnc) {
		e.open('{')
		e.field("models")
		e.open('[')
		for i := range rows {
			e.elem()
			e.modelSummary(&rows[i])
		}
		e.close(']')
		e.close('}')
	})
}
