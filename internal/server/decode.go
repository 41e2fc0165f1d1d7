package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/machine"
	"repro/internal/model"
)

// Hand-rolled request decoders for the hot POST bodies (/v1/eval,
// /v1/evalbatch). The request shapes are tiny fixed structs; a strict
// recursive-descent parser over a pooled body buffer replaces
// json.Decoder and its per-request allocations. Semantics match the
// stdlib path the handlers used before (json.Decoder with
// DisallowUnknownFields):
//
//   - unknown fields are rejected with a `json: unknown field "x"`
//     error (the contract the bad-request tests pin);
//   - field names match exactly first, then case-insensitively with
//     the stdlib's fold (bytes.EqualFold semantics);
//   - a duplicated field keeps the last value; a null value leaves a
//     string or number field untouched and resets a column to nil; a
//     top-level null leaves the whole struct zero;
//   - invalid UTF-8 in a string value or an unknown field's name
//     becomes U+FFFD, one per bad byte;
//   - numbers are validated against the JSON grammar before
//     strconv.ParseFloat sees them;
//   - anything after the top-level value is "trailing data after JSON
//     value".
//
// String values are interned against the fixed vocabulary the requests
// draw from (machine keys, precision names, model names), so a warm
// request decodes without copying any string. /v1/campaign keeps the
// stdlib decoder: campaign.Config is a deep struct and that endpoint's
// cost is the engine run, not the parse.
//
// The decoder is kept because it pays: BenchmarkRequestDecode puts it
// at ~0.3 µs and 0 allocations per eval body against ~2 µs and 10 for
// stdlibDecode, and handlers decoding through strictjson instead
// failed the allocation pins and lost every alternated bench pair on
// eval_zipf and batch_cold (docs/PERFORMANCE.md, "Fast paths that
// stay, and why").

// bodyBufPool recycles request-body read buffers.
var bodyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// readBody drains r's body into a pooled buffer, enforcing maxBytes
// like http.MaxBytesReader (a body of exactly maxBytes is fine, one
// byte more is "http: request body too large"). On success the caller
// owns *bp until it calls releaseBody.
func readBody(r *http.Request, maxBytes int64) (*[]byte, error) {
	bp := bodyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > maxBytes {
			*bp = buf[:0]
			bodyBufPool.Put(bp)
			return nil, errors.New("http: request body too large")
		}
		if err == io.EOF {
			*bp = buf
			return bp, nil
		}
		if err != nil {
			*bp = buf[:0]
			bodyBufPool.Put(bp)
			return nil, err
		}
	}
}

// releaseBody returns a readBody buffer to the pool. Nothing parsed
// from the body may be retained past this call except interned or
// copied strings and parsed numbers.
func releaseBody(bp *[]byte) {
	*bp = (*bp)[:0]
	bodyBufPool.Put(bp)
}

// internTable maps every string a valid request can carry — machine
// keys, precision names, model names — to a canonical copy, so the
// decoder resolves []byte field values to strings without allocating.
// Unknown strings (doomed to fail validation) fall back to a copy with
// invalid UTF-8 replaced, as encoding/json would decode them.
var (
	internOnce  sync.Once
	internTable map[string]string
)

// intern returns the canonical string for b.
func intern(b []byte) string {
	internOnce.Do(func() {
		internTable = map[string]string{"": "", "single": "single", "double": "double"}
		for k := range catalog() {
			internTable[k] = k
		}
		for _, n := range model.Names() {
			internTable[n] = n
		}
	})
	if s, ok := internTable[string(b)]; ok {
		return s
	}
	return toValidUTF8(b)
}

// toValidUTF8 returns b with each byte that is not part of a valid
// UTF-8 sequence replaced by U+FFFD, as encoding/json does when it
// unquotes a string; strings.ToValidUTF8 folds a run of such bytes into
// one replacement instead. Converting to []rune decodes exactly so.
func toValidUTF8(b []byte) string { return string([]rune(string(b))) }

// serverCatalog is the server's one shared machine catalog.
// machine.Catalog() deep-copies every machine per call so callers can
// mutate; the request path only reads, so it resolves machines against
// this single copy and never rebuilds it.
var (
	catalogOnce sync.Once
	catalogMap  map[string]*machine.Machine
)

// catalog returns the shared read-only machine catalog.
func catalog() map[string]*machine.Machine {
	catalogOnce.Do(func() { catalogMap = machine.Catalog() })
	return catalogMap
}

// errUnexpectedEnd is the truncated-input parse error.
var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// emptyFloatColumn is the canonical empty-but-non-nil column "[]"
// decodes to, mirroring the stdlib decoder.
var emptyFloatColumn = []float64{}

// jsonReader is a strict single-value JSON parser over one request
// body. scratch backs unescaped strings; a returned string view is
// valid only until the next string parse.
type jsonReader struct {
	data    []byte
	pos     int
	scratch []byte
}

// skipWS advances past insignificant whitespace.
func (p *jsonReader) skipWS() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// syntaxError reports the unexpected byte at the cursor.
func (p *jsonReader) syntaxError(context string) error {
	if p.pos >= len(p.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s", p.data[p.pos], context)
}

// consumeNull consumes a "null" literal if one starts at the cursor.
func (p *jsonReader) consumeNull() bool {
	if p.pos+4 <= len(p.data) && string(p.data[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

// str parses a string literal, returning its unescaped bytes (a view
// into the body, or into scratch when escapes are present).
func (p *jsonReader) str() ([]byte, error) {
	if p.pos >= len(p.data) || p.data[p.pos] != '"' {
		return nil, p.syntaxError("looking for beginning of string")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			s := p.data[start:p.pos]
			p.pos++
			return s, nil
		case c == '\\':
			return p.strSlow(start)
		case c < 0x20:
			return nil, fmt.Errorf("invalid character %q in string literal", c)
		default:
			p.pos++
		}
	}
	return nil, errUnexpectedEnd
}

// strSlow finishes parsing a string that contains escapes, unescaping
// into scratch. start is the opening-quote-exclusive offset; the cursor
// sits on the first backslash.
func (p *jsonReader) strSlow(start int) ([]byte, error) {
	p.scratch = append(p.scratch[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			p.pos++
			return p.scratch, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, errUnexpectedEnd
			}
			esc := p.data[p.pos]
			p.pos++
			switch esc {
			case '"', '\\', '/':
				p.scratch = append(p.scratch, esc)
			case 'b':
				p.scratch = append(p.scratch, '\b')
			case 'f':
				p.scratch = append(p.scratch, '\f')
			case 'n':
				p.scratch = append(p.scratch, '\n')
			case 'r':
				p.scratch = append(p.scratch, '\r')
			case 't':
				p.scratch = append(p.scratch, '\t')
			case 'u':
				r, err := p.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following \uXXXX low surrogate; anything else
					// decodes to U+FFFD like the stdlib decoder.
					if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
						save := p.pos
						p.pos += 2
						r2, err := p.hex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r = dec
						} else {
							r = utf8.RuneError
							p.pos = save
						}
					} else {
						r = utf8.RuneError
					}
				}
				p.scratch = utf8.AppendRune(p.scratch, r)
			default:
				return nil, fmt.Errorf("invalid character %q in string escape code", esc)
			}
		case c < 0x20:
			return nil, fmt.Errorf("invalid character %q in string literal", c)
		default:
			p.scratch = append(p.scratch, c)
			p.pos++
		}
	}
	return nil, errUnexpectedEnd
}

// hex4 parses four hex digits at the cursor into a rune.
func (p *jsonReader) hex4() (rune, error) {
	if p.pos+4 > len(p.data) {
		return 0, errUnexpectedEnd
	}
	var r rune
	for _, c := range p.data[p.pos : p.pos+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("invalid character %q in \\u hexadecimal character escape", c)
		}
	}
	p.pos += 4
	return r, nil
}

// numberToken consumes one number per the JSON grammar (leading zeros,
// bare dots, and bare signs are all syntax errors) and returns its raw
// bytes for strconv.
func (p *jsonReader) numberToken() ([]byte, error) {
	start := p.pos
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos >= len(p.data):
		return nil, errUnexpectedEnd
	case p.data[p.pos] == '0':
		p.pos++
	case p.data[p.pos] >= '1' && p.data[p.pos] <= '9':
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
		}
	default:
		return nil, p.syntaxError("looking for beginning of number")
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return nil, p.syntaxError("after decimal point in numeric literal")
		}
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return nil, p.syntaxError("in exponent of numeric literal")
		}
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
		}
	}
	return p.data[start:p.pos], nil
}

// stringValue parses a string (or null) into dst, interned.
func (p *jsonReader) stringValue(dst *string, field string) error {
	p.skipWS()
	if p.consumeNull() {
		return nil
	}
	if p.pos < len(p.data) && p.data[p.pos] != '"' {
		return fmt.Errorf("json: cannot unmarshal value into Go struct field %s of type string", field)
	}
	b, err := p.str()
	if err != nil {
		return err
	}
	*dst = intern(b)
	return nil
}

// floatValue parses a number (or null) into dst.
func (p *jsonReader) floatValue(dst *float64, field string) error {
	p.skipWS()
	if p.consumeNull() {
		return nil
	}
	if p.pos < len(p.data) {
		if c := p.data[p.pos]; c != '-' && (c < '0' || c > '9') {
			return fmt.Errorf("json: cannot unmarshal value into Go struct field %s of type float64", field)
		}
	}
	tok, err := p.numberToken()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("json: cannot unmarshal number %s into Go struct field %s of type float64", tok, field)
	}
	*dst = v
	return nil
}

// floatsValue parses an array of numbers (or null) appending into
// dst[:0], so pooled column capacity is reused across requests. It
// returns the parsed slice — empty non-nil for "[]" — or nil for a
// null value, which resets the field as encoding/json does; the caller
// must then keep its scratch rather than assign the nil to it.
func (p *jsonReader) floatsValue(dst []float64, field string) ([]float64, error) {
	p.skipWS()
	if p.consumeNull() {
		return nil, nil
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '[' {
		return nil, fmt.Errorf("json: cannot unmarshal value into Go struct field %s of type []float64", field)
	}
	p.pos++
	out := dst[:0]
	p.skipWS()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		if out == nil {
			// "[]" into a never-used scratch column: match the stdlib's
			// empty-but-non-nil slice without allocating. Appends to a
			// zero-capacity slice reallocate, so sharing is safe.
			out = emptyFloatColumn
		}
		return out, nil
	}
	for {
		var v float64
		if err := p.floatValue(&v, field); err != nil {
			return nil, err
		}
		out = append(out, v)
		p.skipWS()
		if p.pos >= len(p.data) {
			return nil, errUnexpectedEnd
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return out, nil
		default:
			return nil, p.syntaxError("after array element")
		}
	}
}

// object drives a top-level object parse, invoking field for each
// member with the unescaped key (the callback must match the key
// before parsing its value — scratch is shared). A top-level null is
// accepted as a no-op, matching the stdlib decoder.
func (p *jsonReader) object(field func(key []byte) error) error {
	p.skipWS()
	if p.consumeNull() {
		return nil
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '{' {
		return p.syntaxError("looking for beginning of value")
	}
	p.pos++
	p.skipWS()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return nil
	}
	for {
		p.skipWS()
		key, err := p.str()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return p.syntaxError("after object key")
		}
		p.pos++
		if err := field(key); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.data) {
			return errUnexpectedEnd
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return nil
		default:
			return p.syntaxError("after object key:value pair")
		}
	}
}

// trailing rejects any non-whitespace after the top-level value.
func (p *jsonReader) trailing() error {
	p.skipWS()
	if p.pos < len(p.data) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// fieldEq reports whether key matches name case-insensitively — the
// stdlib decoder's fallback after an exact match fails, which folds
// with bytes.EqualFold semantics (simple Unicode folding, so even a
// Kelvin-sign "K" matches a "k"). The []byte conversion of the
// constant name does not escape and does not allocate.
func fieldEq(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// decodeEvalRequest parses one /v1/eval body into q.
func decodeEvalRequest(data []byte, q *evalRequest) error {
	p := jsonReader{data: data}
	err := p.object(func(key []byte) error {
		switch {
		case string(key) == "machine" || fieldEq(key, "machine"):
			return p.stringValue(&q.Machine, "machine")
		case string(key) == "precision" || fieldEq(key, "precision"):
			return p.stringValue(&q.Precision, "precision")
		case string(key) == "work" || fieldEq(key, "work"):
			return p.floatValue(&q.Work, "work")
		case string(key) == "intensity" || fieldEq(key, "intensity"):
			return p.floatValue(&q.Intensity, "intensity")
		case string(key) == "model" || fieldEq(key, "model"):
			return p.stringValue(&q.Model, "model")
		default:
			return fmt.Errorf("json: unknown field %q", toValidUTF8(key))
		}
	})
	if err != nil {
		return err
	}
	return p.trailing()
}

// decodeEvalBatchRequest parses one /v1/evalbatch body into q, with
// its float columns borrowed from sc.
func decodeEvalBatchRequest(data []byte, q *evalBatchRequest, sc *batchScratch) error {
	p := jsonReader{data: data}
	err := p.object(func(key []byte) error {
		switch {
		case string(key) == "machine" || fieldEq(key, "machine"):
			return p.stringValue(&q.Machine, "machine")
		case string(key) == "precision" || fieldEq(key, "precision"):
			return p.stringValue(&q.Precision, "precision")
		case string(key) == "work" || fieldEq(key, "work"):
			cols, err := p.floatsValue(sc.work, "work")
			if cols != nil {
				sc.work = cols
			}
			q.Work = cols
			return err
		case string(key) == "intensities" || fieldEq(key, "intensities"):
			cols, err := p.floatsValue(sc.intensities, "intensities")
			if cols != nil {
				sc.intensities = cols
			}
			q.Intensities = cols
			return err
		case string(key) == "model" || fieldEq(key, "model"):
			return p.stringValue(&q.Model, "model")
		default:
			return fmt.Errorf("json: unknown field %q", toValidUTF8(key))
		}
	})
	if err != nil {
		return err
	}
	return p.trailing()
}
