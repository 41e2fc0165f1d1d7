// Package strictjson is the one strict JSON decode behind every config,
// trace and request body the repo reads: exactly one value, no unknown
// fields, nothing but whitespace after it.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
)

// Unmarshal decodes the single JSON value in data into v. Unlike
// json.Unmarshal it rejects fields v does not declare; unlike a
// json.Decoder checked with More, it also rejects a stray closing
// bracket after the value.
func Unmarshal(data []byte, v any) error {
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
