package trace

import (
	"encoding/json"
	"io"
	"time"
)

// This file turns the ring buffer into Chrome trace_event JSON, the
// format chrome://tracing and Perfetto open directly.

// chromeEvent is one trace_event record. Complete events (ph "X")
// carry both a timestamp and a duration in microseconds.
type chromeEvent struct {
	// Name is the span name.
	Name string `json:"name"`
	// Cat is the event category; all spans export as "span".
	Cat string `json:"cat"`
	// Ph is the event phase; "X" marks a complete (begin+end) event.
	Ph string `json:"ph"`
	// Ts is the start timestamp in microseconds from the trace epoch.
	Ts float64 `json:"ts"`
	// Dur is the duration in microseconds.
	Dur float64 `json:"dur"`
	// Pid is the process lane; the exporter uses a single process.
	Pid int `json:"pid"`
	// Tid is the thread lane — the span's track.
	Tid uint64 `json:"tid"`
	// Args carries the span's tags.
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event envelope.
type chromeTrace struct {
	// TraceEvents is the event list.
	TraceEvents []chromeEvent `json:"traceEvents"`
	// DisplayTimeUnit selects the viewer's default unit.
	DisplayTimeUnit string `json:"displayTimeUnit"`
	// Dropped reports ring-buffer overwrites (0 means the trace is
	// complete). Extra top-level keys are legal in the format.
	Dropped uint64 `json:"dropped,omitempty"`
}

// MarshalChrome renders the recorded spans as Chrome trace_event JSON.
// On a disabled tracer it returns an empty, still-valid trace.
func (t *Tracer) MarshalChrome() ([]byte, error) {
	return t.snapshot(false).MarshalChrome()
}

// WriteChrome writes the trace_event JSON to w.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return t.snapshot(false).WriteChrome(w)
}

// MarshalChrome renders the snapshot as Chrome trace_event JSON.
func (s Snapshot) MarshalChrome() ([]byte, error) {
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(s.Events)),
		DisplayTimeUnit: "ms",
		Dropped:         s.Dropped,
	}
	for _, ev := range s.Events {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  "span",
			Ph:   "X",
			Ts:   float64(ev.Start) / float64(time.Microsecond),
			Dur:  float64(ev.Dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  ev.Track,
		}
		if len(ev.Tags) > 0 {
			ce.Args = make(map[string]any, len(ev.Tags))
			for _, tag := range ev.Tags {
				ce.Args[tag.Key] = tag.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return json.MarshalIndent(out, "", " ")
}

// WriteChrome writes the snapshot's trace_event JSON to w.
func (s Snapshot) WriteChrome(w io.Writer) error {
	data, err := s.MarshalChrome()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
