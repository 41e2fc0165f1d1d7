package main

// This file is the HTTP load generator: closed and open loops over a
// fixed set of keep-alive connections, with per-request accounting.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// sample is one response kept for the byte-for-byte check.
type sample struct {
	body int32
	sum  [sha256.Size]byte
}

// tally is what one sender saw in one phase.
type tally struct {
	hits, misses, coalesced, failed int64
	joules                          float64         // modelled energy of the misses
	lat                             []time.Duration // per OK request
	done                            []time.Duration // per OK request: completion, from the phase start
	samples                         []sample
	firstErr                        string
}

// add folds o into t.
func (t *tally) add(o *tally) {
	t.hits += o.hits
	t.misses += o.misses
	t.coalesced += o.coalesced
	t.failed += o.failed
	t.joules += o.joules
	t.lat = append(t.lat, o.lat...)
	t.done = append(t.done, o.done...)
	t.samples = append(t.samples, o.samples...)
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// ok returns the number of requests answered 200 with a valid X-Cache.
func (t *tally) ok() int64 { return t.hits + t.misses + t.coalesced }

// latenciesMS returns the sorted latencies in milliseconds.
func (t *tally) latenciesMS() []float64 {
	out := make([]float64, len(t.lat))
	for i, d := range t.lat {
		out[i] = ms(d)
	}
	return sorted(out)
}

// ms converts d to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts d to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window is the span the timing metrics are read over. Slowdowns on a
// shared host come and go over seconds, and only ever add time, so the
// benchmark cuts a phase into windows and reads each timing at the
// fastest tenth of them: its spread between runs is half or less of the
// whole phase's.
const window = 500 * time.Millisecond

// windows cuts a phase into whole windows by completion time and
// returns each window's request rate and median latency in ms, sorted.
func (t *tally) windows() (rates, medians []float64, err error) {
	var end time.Duration
	for _, d := range t.done {
		end = max(end, d)
	}
	n := int(end / window)
	if n == 0 {
		return nil, nil, fmt.Errorf("phase shorter than one %v window", window)
	}
	lat := make([][]float64, n)
	for i, d := range t.done {
		if k := int(d / window); k < n {
			lat[k] = append(lat[k], ms(t.lat[i]))
		}
	}
	for _, w := range lat {
		rates = append(rates, float64(len(w))/window.Seconds())
		if len(w) > 0 {
			medians = append(medians, median(w))
		}
	}
	return sorted(rates), sorted(medians), nil
}

// sender is one connection's client and its tally.
type sender struct {
	client *http.Client
	buf    bytes.Buffer
	t      tally
}

// load drives one target with one workload's inputs.
type load struct {
	url     string
	in      *inputs
	senders [connections]*sender
	next    atomic.Int64  // index of the next request in the input stream
	start   time.Time     // start of the current phase
	tracer  *trace.Tracer // nil unless the phase is traced
}

// newLoad prepares senders for a target.
func newLoad(url string, spec *httpSpec, in *inputs) *load {
	l := &load{url: url + spec.path, in: in}
	for i := range l.senders {
		l.senders[i] = &sender{client: newClient()}
	}
	return l
}

// close drops the senders' idle connections.
func (l *load) close() {
	for _, s := range l.senders {
		s.client.CloseIdleConnections()
	}
}

// send issues request i on s and records it. Latency runs from due, or
// from just before the send when due is zero.
func (l *load) send(s *sender, i int64, due time.Time) {
	b := l.in.body(i)
	ctx, sp := l.tracer.StartRoot(context.Background(), "bench.request")
	sp.Tag("req", i)
	defer sp.End()
	fail := func(format string, args ...any) {
		s.t.failed++
		if s.t.firstErr == "" {
			s.t.firstErr = fmt.Sprintf("request %d: ", i) + fmt.Sprintf(format, args...)
		}
	}
	req, err := http.NewRequest(http.MethodPost, l.url, bytes.NewReader(l.in.bodies[b]))
	if err != nil {
		fail("%v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if due.IsZero() {
		due = time.Now()
	}
	_, rt := trace.Start(ctx, "nethttp.roundtrip")
	rt.Tag("req", i)
	resp, err := s.client.Do(req)
	rt.End()
	if err != nil {
		fail("%v", err)
		return
	}
	_, rb := trace.Start(ctx, "nethttp.read_body")
	rb.Tag("req", i)
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rb.End()
	lat := time.Since(due)
	switch {
	case err != nil:
		fail("reading body: %v", err)
		return
	case resp.StatusCode != http.StatusOK:
		fail("status %d: %s", resp.StatusCode, s.buf.Bytes())
		return
	}
	switch src := resp.Header.Get("X-Cache"); src {
	case "hit":
		s.t.hits++
	case "miss":
		s.t.misses++
		s.t.joules += l.in.joules[b]
	case "coalesced":
		s.t.coalesced++
	default:
		fail("X-Cache %q", src)
		return
	}
	s.t.lat = append(s.t.lat, lat)
	s.t.done = append(s.t.done, time.Since(l.start))
	if i%sampleEvery == 0 {
		s.t.samples = append(s.t.samples, sample{body: b, sum: sha256.Sum256(s.buf.Bytes())})
	}
}

// collect merges and resets the senders' tallies.
func (l *load) collect() tally {
	var t tally
	for _, s := range l.senders {
		t.add(&s.t)
		s.t = tally{}
	}
	return t
}

// closed runs the closed loop: each sender sends its next request as
// soon as the previous body is read. It stops after n requests when n >
// 0, else once d has passed, and returns the tally and the wall time.
func (l *load) closed(n int64, d time.Duration) (tally, time.Duration) {
	end := l.next.Load() + n
	start := time.Now()
	l.start = start
	var wg sync.WaitGroup
	for _, s := range l.senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for n > 0 || time.Since(start) < d {
				i := l.next.Add(1) - 1
				if n > 0 && i >= end {
					return
				}
				l.send(s, i, time.Time{})
			}
		}(s)
	}
	wg.Wait()
	return l.collect(), time.Since(start)
}

// openResult is an open-loop phase's tally and generator health.
type openResult struct {
	tally
	wall    time.Duration
	lag     []time.Duration // dispatch time minus due time, per request
	backlog int             // most requests dispatched but not yet sent
}

// open runs the open loop: requests are dispatched at their scheduled
// times whatever the server's state, and each is timed from when it was
// due, so a stall shows in the latency of the requests queued behind it.
func (l *load) open(sched []time.Duration) openResult {
	type job struct {
		i   int64
		due time.Time
	}
	// Buffered to the whole schedule so the dispatcher never blocks: a
	// slow server shows as backlog and latency, not as dispatcher lag.
	jobs := make(chan job, len(sched))
	var wg sync.WaitGroup
	for _, s := range l.senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for j := range jobs {
				l.send(s, j.i, j.due)
			}
		}(s)
	}
	res := openResult{lag: make([]time.Duration, 0, len(sched))}
	base := l.next.Add(int64(len(sched))) - int64(len(sched))
	start := time.Now()
	l.start = start
	for k, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lag = append(res.lag, time.Since(due))
		res.backlog = max(res.backlog, len(jobs))
		jobs <- job{i: base + int64(k), due: due}
	}
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	res.tally = l.collect()
	return res
}
