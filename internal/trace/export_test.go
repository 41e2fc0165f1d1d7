package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestChromeExportGolden pins the exporter's exact output for a
// deterministic clock: valid trace_event JSON with microsecond
// complete events, tags as args, and track inheritance as tid.
func TestChromeExportGolden(t *testing.T) {
	tr := New(Config{Clock: newFake(time.Millisecond)})
	ctx := WithTracer(context.Background(), tr)
	ctx, outer := Start(ctx, "campaign") // start at 1ms
	_, rep := Start(ctx, "sweep.rep")    // start at 2ms
	rep.Tag("rep", 0).Tag("precision", "double")
	rep.End()   // end at 3ms
	outer.End() // end at 4ms

	data, err := tr.MarshalChrome()
	if err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if got.DisplayTimeUnit != "ms" || got.Dropped != 0 {
		t.Errorf("envelope wrong: %+v", got)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(got.TraceEvents))
	}
	rep2, out2 := got.TraceEvents[0], got.TraceEvents[1]
	if rep2.Name != "sweep.rep" || rep2.Ph != "X" || rep2.Ts != 2000 || rep2.Dur != 1000 {
		t.Errorf("rep event wrong: %+v", rep2)
	}
	if out2.Name != "campaign" || out2.Ts != 1000 || out2.Dur != 3000 {
		t.Errorf("outer event wrong: %+v", out2)
	}
	if rep2.Tid != out2.Tid {
		t.Errorf("child tid %d != parent tid %d", rep2.Tid, out2.Tid)
	}
	if rep2.Args["rep"] != float64(0) || rep2.Args["precision"] != "double" {
		t.Errorf("args wrong: %+v", rep2.Args)
	}
}

func TestWriteChromeEmptyTraceIsValid(t *testing.T) {
	var buf bytes.Buffer
	var tr *Tracer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if len(got.TraceEvents) != 0 {
		t.Errorf("empty tracer exported %d events", len(got.TraceEvents))
	}
}
