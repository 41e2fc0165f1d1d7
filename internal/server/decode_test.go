package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// The hand-rolled request decoders replace json.Decoder with
// DisallowUnknownFields on the hot POST endpoints. These tests, and
// FuzzRequestDecoding in fuzz_decode_test.go, enforce the replacement
// differentially: for every body — valid, hostile, or truncated — the
// custom decoder must agree with the stdlib pipeline it replaced on
// (a) whether the body is accepted and (b) the exact decoded struct
// when it is. The stdlib stays the executable specification, exactly
// like the encoder tests in encode_test.go.

// stdlibDecode is the reference pipeline: json.Decoder with
// DisallowUnknownFields, then a check that only whitespace follows the
// value. Decoder.More would not do for that check: it reports false in
// front of a stray '}' or ']', so `{}}` would pass.
func stdlibDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// decodeCases is the shared body corpus: every syntactic and semantic
// edge the parser handles, exercised against both request shapes where
// the shape allows.
var decodeCases = []struct {
	name string
	body string
}{
	{"valid", `{"machine":"gtx580","precision":"double","work":1e9,"intensity":4}`},
	{"valid with model", `{"machine":"gtx580","precision":"single","work":2.5e8,"intensity":0.25,"model":"blackbox"}`},
	{"whitespace everywhere", " \t\r\n{ \"machine\" : \"gtx580\" ,\n\"intensity\" :\t4 }\n\t "},
	{"empty object", `{}`},
	{"top-level null", `null`},
	{"case-insensitive keys", `{"MACHINE":"gtx580","Precision":"double","WoRk":1,"INTENSITY":2}`},
	{"kelvin-sign folded key", `{"\u212aachine":"gtx580","intensity":4}`},
	{"escaped exact key", `{"\u006dachine":"gtx580","intensity":4}`},
	{"duplicate key last wins", `{"machine":"i7-950","machine":"gtx580","intensity":1,"intensity":2}`},
	{"null values ignored", `{"machine":null,"precision":null,"work":null,"intensity":3}`},
	{"string escapes", `{"machine":"\u0067tx58\u0030","precision":"a\"b\\c\/d\b\f\n\r\te"}`},
	{"surrogate pair", `{"machine":"\ud83d\ude00"}`},
	{"lone high surrogate", `{"machine":"\ud83dx"}`},
	{"lone low surrogate", `{"machine":"\ude00"}`},
	{"number forms", `{"work":0,"intensity":-0.5}`},
	{"exponent forms", `{"work":1E+9,"intensity":25e-1}`},
	{"huge number overflows", `{"work":1e400}`},
	{"tiny number underflows", `{"work":1e-400}`},
	{"unknown field", `{"machine":"gtx580","bogus":1}`},
	{"unknown escaped field", `{"\u0062ogus":1}`},
	{"wrong type string", `{"machine":42}`},
	{"wrong type number", `{"work":"1e9"}`},
	{"wrong type object", `{"work":{}}`},
	{"top-level array", `[1,2,3]`},
	{"top-level number", `42`},
	{"leading zero", `{"work":01}`},
	{"bare dot", `{"work":1.}`},
	{"dot first", `{"work":.5}`},
	{"bare exponent", `{"work":1e}`},
	{"plus sign", `{"work":+1}`},
	{"bare minus", `{"work":-}`},
	{"trailing garbage", `{"machine":"gtx580"} extra`},
	{"second value", `{"machine":"gtx580"}{}`},
	{"trailing comma", `{"machine":"gtx580",}`},
	{"missing colon", `{"machine" "gtx580"}`},
	{"missing comma", `{"machine":"gtx580" "intensity":4}`},
	{"unterminated object", `{"machine":"gtx580"`},
	{"unterminated string", `{"machine":"gtx`},
	{"unterminated escape", `{"machine":"\`},
	{"bad escape", `{"machine":"\q"}`},
	{"bad unicode escape", `{"machine":"\u00zz"}`},
	{"short unicode escape", `{"machine":"\u00`},
	{"control char in string", "{\"machine\":\"a\x01b\"}"},
	{"invalid UTF-8 in a string", "{\"machine\":\"gtx\xe2\x82\",\"precision\":\"\x9e\xff\"}"},
	{"invalid UTF-8 after an escape", "{\"machine\":\"\\u0067\xff\xfe\"}"},
	{"empty body", ``},
	{"whitespace body", `   `},
	{"truncated null", `nul`},
}

func TestDecodeEvalMatchesStdlib(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			var want, got evalRequest
			wantErr := stdlibDecode([]byte(tc.body), &want)
			gotErr := decodeEvalRequest([]byte(tc.body), &got)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("accept/reject mismatch for %q:\n  stdlib: %v\n  custom: %v", tc.body, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decode mismatch for %q:\n  stdlib: %+v\n  custom: %+v", tc.body, want, got)
			}
		})
	}
}

func TestDecodeEvalBatchMatchesStdlib(t *testing.T) {
	batchOnly := []struct {
		name string
		body string
	}{
		{"valid columns", `{"machine":"gtx580","precision":"double","work":[1e9,2e9],"intensities":[0.25,4]}`},
		{"empty arrays", `{"work":[],"intensities":[]}`},
		{"null columns", `{"work":null,"intensities":null}`},
		{"null resets a column", `{"work":[1e9],"work":null,"intensities":[2],"intensities":null}`},
		{"array whitespace", `{"intensities":[ 1 , 2.5 ,3e0 ]}`},
		{"nested array", `{"intensities":[[1]]}`},
		{"string in array", `{"intensities":[1,"2"]}`},
		{"null in array", `{"intensities":[1,null]}`},
		{"unterminated array", `{"intensities":[1,2`},
		{"missing array comma", `{"intensities":[1 2]}`},
		{"trailing array comma", `{"intensities":[1,]}`},
		{"scalar for column", `{"work":3}`},
	}
	cases := decodeCases
	for _, tc := range batchOnly {
		cases = append(cases, struct {
			name string
			body string
		}{tc.name, tc.body})
	}
	for _, tc := range cases {
		// The eval-shape corpus reuses scalar work/intensity members the
		// batch shape does not have; map them onto the column fields.
		body := strings.ReplaceAll(tc.body, `"work":1e9`, `"work":[1e9]`)
		body = strings.ReplaceAll(body, `"intensity"`, `"intensities"`)
		if strings.Contains(body, `"WoRk"`) || strings.Contains(body, `"work":0`) ||
			strings.Contains(body, `"work":1`) || strings.Contains(body, `"work":+1`) ||
			strings.Contains(body, `"work":.5`) || strings.Contains(body, `"work":-}`) ||
			strings.Contains(body, `"work":"1e9"`) || strings.Contains(body, `"work":{}`) ||
			strings.Contains(body, `"work":01`) {
			// Scalar-typed work bodies exercise column type errors below
			// instead; both decoders must still agree, so keep them.
			body = tc.body
		}
		t.Run(tc.name, func(t *testing.T) {
			var want, got evalBatchRequest
			sc := &batchScratch{}
			wantErr := stdlibDecode([]byte(body), &want)
			gotErr := decodeEvalBatchRequest([]byte(body), &got, sc)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("accept/reject mismatch for %q:\n  stdlib: %v\n  custom: %v", body, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decode mismatch for %q:\n  stdlib: %+v\n  custom: %+v", body, want, got)
			}
		})
	}
}

// TestDecodeUnknownFieldWording pins the error contract the handler
// tests rely on: unknown fields surface the stdlib's `json: unknown
// field "x"` wording so bad-request bodies read identically.
func TestDecodeUnknownFieldWording(t *testing.T) {
	var q evalRequest
	err := decodeEvalRequest([]byte(`{"bogus":1}`), &q)
	if err == nil || !strings.Contains(err.Error(), `json: unknown field "bogus"`) {
		t.Fatalf("unknown-field error = %v, want the stdlib wording", err)
	}
	var bq evalBatchRequest
	err = decodeEvalBatchRequest([]byte(`{"intensity":[1]}`), &bq, &batchScratch{})
	if err == nil || !strings.Contains(err.Error(), `json: unknown field "intensity"`) {
		t.Fatalf("batch unknown-field error = %v, want the stdlib wording", err)
	}
	// Each invalid UTF-8 byte of the name becomes one U+FFFD, as in the
	// stdlib's text; a truncated sequence is two bytes, so two of them.
	body := []byte("{\"\x9e\xe2\x82achine\":1}")
	want := stdlibDecode(body, &evalRequest{})
	if err := decodeEvalRequest(body, &q); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("unknown-field error for an invalid UTF-8 name = %v, stdlib says %v", err, want)
	}
}

// TestDecodeBatchNullDoesNotAliasScratch is the regression test for the
// pooled-column hazard: a null column must leave the request field
// untouched rather than exposing a stale slice from a previous request
// that used the same pooled scratch.
func TestDecodeBatchNullDoesNotAliasScratch(t *testing.T) {
	sc := &batchScratch{
		work:        []float64{7, 7, 7},
		intensities: []float64{9, 9},
	}
	var q evalBatchRequest
	body := `{"machine":"gtx580","work":null,"intensities":null}`
	if err := decodeEvalBatchRequest([]byte(body), &q, sc); err != nil {
		t.Fatal(err)
	}
	if q.Work != nil || q.Intensities != nil {
		t.Fatalf("null columns leaked pooled scratch: work=%v intensities=%v", q.Work, q.Intensities)
	}
}

// TestDecodeBatchReusesScratchCapacity pins the whole point of the
// pooled columns: a second decode through the same scratch parses into
// the same backing arrays instead of allocating new ones.
func TestDecodeBatchReusesScratchCapacity(t *testing.T) {
	sc := &batchScratch{}
	var q evalBatchRequest
	body := []byte(`{"work":[1,2,3,4],"intensities":[5,6,7,8]}`)
	if err := decodeEvalBatchRequest(body, &q, sc); err != nil {
		t.Fatal(err)
	}
	first := &sc.work[0]
	q = evalBatchRequest{}
	if err := decodeEvalBatchRequest(body, &q, sc); err != nil {
		t.Fatal(err)
	}
	if &sc.work[0] != first {
		t.Fatal("second decode reallocated the pooled work column")
	}
	if !reflect.DeepEqual(q.Work, []float64{1, 2, 3, 4}) || !reflect.DeepEqual(q.Intensities, []float64{5, 6, 7, 8}) {
		t.Fatalf("second decode parsed %v / %v", q.Work, q.Intensities)
	}
}

// TestDecodeInternsVocabulary verifies warm-path strings resolve to the
// canonical interned copies so decoding a valid request performs no
// string allocation.
func TestDecodeInternsVocabulary(t *testing.T) {
	body := []byte(`{"machine":"gtx580","precision":"double","model":"blackbox"}`)
	var q evalRequest
	if err := decodeEvalRequest(body, &q); err != nil {
		t.Fatal(err)
	}
	if got := intern([]byte("gtx580")); q.Machine != got {
		t.Fatalf("machine %q not interned", q.Machine)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var q evalRequest
		if err := decodeEvalRequest(body, &q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %.1f times per request, want 0", allocs)
	}
}

// TestReadBodyLimit pins readBody's MaxBytesReader-compatible contract:
// exactly maxBytes is accepted, one more byte is "http: request body
// too large", and the pooled buffer round-trips.
func TestReadBodyLimit(t *testing.T) {
	body := strings.Repeat("x", 64)
	r := httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body))
	bp, err := readBody(r, 64)
	if err != nil {
		t.Fatalf("body of exactly maxBytes rejected: %v", err)
	}
	if string(*bp) != body {
		t.Fatalf("readBody returned %d bytes, want %d", len(*bp), len(body))
	}
	releaseBody(bp)

	r = httptest.NewRequest("POST", "/v1/eval", strings.NewReader(body+"y"))
	if _, err := readBody(r, 64); err == nil || !strings.Contains(err.Error(), "request body too large") {
		t.Fatalf("oversized body error = %v", err)
	}

	r = httptest.NewRequest("POST", "/v1/eval", io.MultiReader(
		strings.NewReader(body[:32]), strings.NewReader(body[32:])))
	bp, err = readBody(r, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if string(*bp) != body {
		t.Fatalf("chunked read returned %q", *bp)
	}
	releaseBody(bp)
}
