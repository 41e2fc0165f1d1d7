package server

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON primitives for the POST /v1/eval and /v1/evalbatch response
// renderer (render.go). The response shapes are fixed, so reflection
// buys nothing but allocations; these append-based primitives are
// pinned byte-identical to json.MarshalIndent(v, "", "  ") by
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
// Containers nest via open/close; field places commas, newlines and
// indentation exactly where the stdlib indenter does. The first
// float error sticks and the finished buffer is discarded.
type jsonEnc struct {
	buf   []byte
	depth int
	first bool // next member is its container's first (no comma)
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

// field starts the named object member: a comma unless it is the
// first, then newline plus indent. Field names are trusted ASCII
// literals, so they skip the escaper.
func (e *jsonEnc) field(name string) {
	if e.first {
		e.first = false
	} else {
		e.buf = append(e.buf, ',')
	}
	e.nl()
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
