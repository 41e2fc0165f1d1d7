package server

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzRequestDecoding differentially fuzzes the request decoders
// against encoding/json (stdlibDecode). Every body is decoded as a
// /v1/eval and as a /v1/evalbatch request, and for each shape both
// decoders must accept or both reject it; an accepted body must decode
// to reflect.DeepEqual values; and when encoding/json reports an
// unknown field, the hand-written decoder must report the same text.
// The batch decode runs over scratch columns a previous request left
// dirty, so a null or empty column cannot surface them. Beyond the
// shared corpus, the seeds are where a hand-written parser parts most
// easily from encoding/json: invalid UTF-8 in a string value or a
// field name, where each bad byte becomes U+FFFD; a stray '}' or ']'
// after the value; and a null that resets a column decoded earlier in
// the same body.
func FuzzRequestDecoding(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"machine":"gtx580","precision":"double","work":[1e9,2e9],"intensities":[0.25,4]}`))
	f.Add([]byte(`{"work":[1e9],"work":null,"intensities":[2],"intensities":null}`))
	f.Add([]byte("{\"precision\":\"\x9e\"}"))
	f.Add([]byte("{\"\x9eachine\":\"gtx580\"}"))
	f.Add([]byte(`{}}`))
	f.Add([]byte(`{}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got evalRequest
		checkDecoded(t, body, stdlibDecode(body, &want), decodeEvalRequest(body, &got), got, want)
		var bwant, bgot evalBatchRequest
		sc := &batchScratch{work: []float64{7, 7}, intensities: []float64{9}}
		checkDecoded(t, body, stdlibDecode(body, &bwant), decodeEvalBatchRequest(body, &bgot, sc), bgot, bwant)
	})
}

// checkDecoded fails t unless the two decoders' verdicts on body agree,
// as FuzzRequestDecoding defines agreement.
func checkDecoded(t *testing.T, body []byte, wantErr, gotErr error, got, want any) {
	t.Helper()
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("accept/reject mismatch for %q:\n  stdlib: %v\n  custom: %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		if strings.HasPrefix(wantErr.Error(), "json: unknown field") && gotErr.Error() != wantErr.Error() {
			t.Fatalf("unknown-field error for %q:\n  stdlib: %v\n  custom: %v", body, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode mismatch for %q:\n  stdlib: %+v\n  custom: %+v", body, want, got)
	}
}
