// Package powermon simulates the paper's measurement apparatus: a
// PowerMon 2 board plus PCIe interposer (§IV-A, Fig. 3). It samples the
// instantaneous power of a running kernel on several DC channels at a
// configurable rate (the paper samples at 128 Hz per channel, a 7.8125 ms
// period), reports time-stamped voltage/current readings, and computes
// average power and total energy exactly the way the paper does:
// per-sample power is ΣV·I over channels, average power is the mean over
// samples, and energy is average power times total time.
package powermon

import (
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/units"
)

// Source yields the instantaneous power of a device under test at time
// t from the start of a run. *sim.Run satisfies this interface.
type Source interface {
	PowerAt(t units.Seconds) units.Watts
}

// Channel is one monitored DC supply rail.
type Channel struct {
	// Name labels the rail, e.g. "12V-8pin".
	Name string
	// NominalVolts is the rail's nominal voltage.
	NominalVolts float64
	// Share is the fraction of total device power drawn over this rail;
	// shares across a monitor's channels must sum to 1.
	Share float64
}

// GPUChannels returns the four rails the paper monitors for the GPU:
// the 8-pin and 6-pin 12 V PSU connectors and, via the PCIe interposer,
// the motherboard's 12 V and 3.3 V slot supplies.
func GPUChannels() []Channel {
	return []Channel{
		{Name: "12V-8pin", NominalVolts: 12, Share: 0.45},
		{Name: "12V-6pin", NominalVolts: 12, Share: 0.30},
		{Name: "PCIe-12V", NominalVolts: 12, Share: 0.20},
		{Name: "PCIe-3.3V", NominalVolts: 3.3, Share: 0.05},
	}
}

// CPUChannels returns the four rails the paper monitors for the CPU
// system: the 20-pin connector's 3.3 V, 5 V and 12 V sources plus the
// 4-pin 12 V connector.
func CPUChannels() []Channel {
	return []Channel{
		{Name: "ATX-3.3V", NominalVolts: 3.3, Share: 0.05},
		{Name: "ATX-5V", NominalVolts: 5, Share: 0.10},
		{Name: "ATX-12V", NominalVolts: 12, Share: 0.40},
		{Name: "ATX12V-4pin", NominalVolts: 12, Share: 0.45},
	}
}

// Config controls the monitor.
type Config struct {
	// RateHz is the per-channel sampling rate; defaults to the paper's
	// 128 Hz. PowerMon 2 supports up to 1024 Hz per channel.
	RateHz float64
	// VoltNoiseSD is the relative noise on each voltage reading
	// (default 0.002).
	VoltNoiseSD float64
	// CurrNoiseSD is the relative noise on each current reading
	// (default 0.005).
	CurrNoiseSD float64
	// Seed makes the measurement noise deterministic.
	Seed int64
	// MaxSamples bounds a single trace (default 4 << 20).
	MaxSamples int
	// DropoutProb is the per-sample probability that the board misses
	// the reading entirely (serial glitch); dropped samples are absent
	// from the trace rather than recorded as zeros, so the averaging
	// pipeline stays unbiased. Default 0.
	DropoutProb float64
	// GainError is a per-channel multiplicative calibration error drawn
	// once at construction from N(1, GainError) — the systematic bias a
	// shunt-resistor tolerance introduces. Unlike sample noise it does
	// not average out. Default 0.
	GainError float64
}

// Monitor samples a Source over a set of channels.
type Monitor struct {
	channels []Channel
	cfg      Config
	rng      *stats.Rand
	// gain holds the hidden per-channel systematic error.
	gain []float64
}

// New builds a monitor. Channel shares must sum to 1 (±1e-9) and all
// rails must have positive nominal voltage.
func New(channels []Channel, cfg Config) (*Monitor, error) {
	if len(channels) == 0 {
		return nil, errors.New("powermon: need at least one channel")
	}
	sum := 0.0
	for i, c := range channels {
		if c.NominalVolts <= 0 {
			return nil, fmt.Errorf("powermon: channel %d (%s) has non-positive voltage", i, c.Name)
		}
		if c.Share < 0 {
			return nil, fmt.Errorf("powermon: channel %d (%s) has negative share", i, c.Name)
		}
		sum += c.Share
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return nil, fmt.Errorf("powermon: channel shares sum to %g, want 1", sum)
	}
	if cfg.RateHz == 0 {
		cfg.RateHz = 128
	}
	if cfg.RateHz <= 0 {
		return nil, errors.New("powermon: sampling rate must be positive")
	}
	if cfg.VoltNoiseSD == 0 {
		cfg.VoltNoiseSD = 0.002
	}
	if cfg.CurrNoiseSD == 0 {
		cfg.CurrNoiseSD = 0.005
	}
	if cfg.VoltNoiseSD < 0 || cfg.CurrNoiseSD < 0 {
		return nil, errors.New("powermon: negative noise")
	}
	if cfg.MaxSamples == 0 {
		cfg.MaxSamples = 4 << 20
	}
	if cfg.DropoutProb < 0 || cfg.DropoutProb >= 1 {
		return nil, errors.New("powermon: dropout probability must be in [0, 1)")
	}
	if cfg.GainError < 0 || cfg.GainError > 0.5 {
		return nil, errors.New("powermon: gain error must be in [0, 0.5]")
	}
	m := &Monitor{
		channels: append([]Channel(nil), channels...),
		cfg:      cfg,
		rng:      stats.NewRand(cfg.Seed),
		gain:     make([]float64, len(channels)),
	}
	for i := range m.gain {
		m.gain[i] = 1
		if cfg.GainError > 0 {
			m.gain[i] = m.rng.RelNoise(cfg.GainError)
		}
	}
	return m, nil
}

// Fork returns a monitor that shares this monitor's channels,
// configuration, and hidden gain error but draws its
// sample noise from an independent stream derived from the monitor's
// seed and the given labels (see stats.DeriveSeed). Forks with equal
// labels produce identical traces; forks with different labels are
// uncorrelated. Fork never touches the parent's stream, so forking is
// invisible to sequential users of the parent.
//
// A monitor's Measure mutates its own rng, so a single Monitor must not
// be shared across goroutines — each concurrent task takes one Fork
// keyed by its task labels instead.
func (m *Monitor) Fork(labels ...uint64) *Monitor {
	f := *m
	f.rng = stats.DeriveRand(m.cfg.Seed, labels...)
	f.gain = append([]float64(nil), m.gain...)
	return &f
}

// Sample is one time-stamped reading across all channels.
type Sample struct {
	// T is the time from the start of the run.
	T units.Seconds
	// Volts holds the per-channel voltage readings.
	Volts []float64
	// Amps holds the per-channel current readings.
	Amps []float64
}

// Power returns the instantaneous total power of the sample: Σ V·I.
func (s *Sample) Power() units.Watts {
	p := 0.0
	for i := range s.Volts {
		p += s.Volts[i] * s.Amps[i]
	}
	return units.Watts(p)
}

// Trace is a complete measurement of one run. A Trace integrates
// itself lazily: the first call to AveragePower or Energy makes one
// pass over the samples and memoizes the sum, so asking for both costs
// one integration, not two. Mutating Samples in place after that first
// call is not supported (append/truncate is detected; in-place edits
// are not).
type Trace struct {
	// Channels are the monitored rails, in sample column order.
	Channels []Channel
	// Samples are the readings, in time order.
	Samples []Sample
	// Duration is the run's total wall time.
	Duration units.Seconds
	// Dropped counts samples the board failed to record.
	Dropped int

	// flat is the shared backing array the samples' Volts/Amps slices
	// point into — one allocation per measurement instead of two per
	// sample.
	flat []float64
	// sum is the memoized integration (nil until first use).
	sum *traceSummary
}

// traceSummary holds the single-pass integration of a trace: the total
// of the per-sample powers over nSamples samples.
type traceSummary struct {
	nSamples int
	total    float64
}

// sampleCount validates the duration and returns the number of samples
// a measurement takes plus the sampling period.
func (m *Monitor) sampleCount(duration units.Seconds) (n int, period float64, err error) {
	if duration <= 0 {
		return 0, 0, errors.New("powermon: non-positive duration")
	}
	period = 1 / m.cfg.RateHz
	n = int(float64(duration) / period)
	if n < 1 {
		n = 1
	}
	if n > m.cfg.MaxSamples {
		return 0, 0, fmt.Errorf("powermon: %d samples exceed limit %d; lower the rate or shorten the run", n, m.cfg.MaxSamples)
	}
	return n, period, nil
}

// errAllDropped is the every-sample-dropped failure, shared by the
// trace and trace-free measurement paths.
func errAllDropped() error {
	return errors.New("powermon: every sample dropped; no measurement")
}

// Measure samples the source for the given duration. The first sample
// is taken at half a period (mid-interval sampling), the rest at the
// channel rate. The returned trace's per-sample readings share one
// preallocated backing array sized from duration×rate, so a
// measurement costs a constant number of allocations regardless of
// sample count.
func (m *Monitor) Measure(src Source, duration units.Seconds) (*Trace, error) {
	tr := &Trace{}
	if err := m.measureInto(m.rng, tr, src, duration); err != nil {
		return nil, err
	}
	return tr, nil
}

// measureInto samples src into tr, reusing tr's backing storage when
// its capacity suffices. The noise stream, sampling schedule, and
// arithmetic are exactly Measure's — pooling buffers never reaches the
// recorded values.
func (m *Monitor) measureInto(rng *stats.Rand, tr *Trace, src Source, duration units.Seconds) error {
	n, period, err := m.sampleCount(duration)
	if err != nil {
		return err
	}
	nc := len(m.channels)
	tr.Channels = append(tr.Channels[:0], m.channels...)
	tr.Duration = duration
	tr.Dropped = 0
	tr.sum = nil
	if cap(tr.Samples) < n {
		tr.Samples = make([]Sample, 0, n)
	} else {
		tr.Samples = tr.Samples[:0]
	}
	if need := 2 * n * nc; cap(tr.flat) < need {
		tr.flat = make([]float64, need)
	}
	for i := 0; i < n; i++ {
		if m.cfg.DropoutProb > 0 && rng.Float64() < m.cfg.DropoutProb {
			tr.Dropped++
			continue
		}
		ts := units.Seconds((float64(i) + 0.5) * period)
		if ts > duration {
			ts = duration
		}
		truth := float64(src.PowerAt(ts))
		off := 2 * len(tr.Samples) * nc
		s := Sample{
			T:     ts,
			Volts: tr.flat[off : off+nc : off+nc],
			Amps:  tr.flat[off+nc : off+2*nc : off+2*nc],
		}
		for c, ch := range m.channels {
			v := ch.NominalVolts * rng.RelNoise(m.cfg.VoltNoiseSD)
			chanPower := truth * ch.Share * m.gain[c] * rng.RelNoise(m.cfg.CurrNoiseSD)
			s.Volts[c] = v
			s.Amps[c] = chanPower / v
		}
		tr.Samples = append(tr.Samples, s)
	}
	if len(tr.Samples) == 0 {
		return errAllDropped()
	}
	return nil
}

// EnergyDerived measures src for the given duration on an independent
// noise stream derived from the monitor's seed and labels, and returns
// the trace's integrated energy without materialising the trace. It is
// the allocation-free fast path for sweeps that only need the energy:
// the result is bit-identical to
//
//	m.Fork(labels...).Measure(src, duration).Energy()
//
// because the derived stream, the sampling schedule, and every
// arithmetic operation match that pipeline exactly — readings are
// integrated on the fly instead of stored. Like Fork, EnergyDerived
// never touches the parent's sequential stream and is safe to call
// concurrently (with distinct labels).
func (m *Monitor) EnergyDerived(labels []uint64, src Source, duration units.Seconds) (units.Joules, error) {
	n, period, err := m.sampleCount(duration)
	if err != nil {
		return 0, err
	}
	rng := stats.BorrowDerived(m.cfg.Seed, labels...)
	defer rng.Release()
	total := 0.0
	kept := 0
	for i := 0; i < n; i++ {
		if m.cfg.DropoutProb > 0 && rng.Float64() < m.cfg.DropoutProb {
			continue
		}
		ts := units.Seconds((float64(i) + 0.5) * period)
		if ts > duration {
			ts = duration
		}
		truth := float64(src.PowerAt(ts))
		p := 0.0
		for c, ch := range m.channels {
			v := ch.NominalVolts * rng.RelNoise(m.cfg.VoltNoiseSD)
			chanPower := truth * ch.Share * m.gain[c] * rng.RelNoise(m.cfg.CurrNoiseSD)
			// Mirror Measure + Sample.Power exactly: the stored amps are
			// chanPower/v, and integration multiplies them back by v —
			// v*(chanPower/v) is not chanPower in floating point.
			a := chanPower / v
			p += v * a
		}
		total += p
		kept++
	}
	if kept == 0 {
		return 0, errAllDropped()
	}
	return units.Watts(total / float64(kept)).Mul(duration), nil
}

// integrate runs (or returns the memoized) single pass over the
// samples. Each sample's power accumulates exactly as Sample.Power
// does, so AveragePower is bit-identical to averaging Sample.Power.
func (t *Trace) integrate() *traceSummary {
	if t.sum != nil && t.sum.nSamples == len(t.Samples) {
		return t.sum
	}
	s := &traceSummary{nSamples: len(t.Samples)}
	for i := range t.Samples {
		sm := &t.Samples[i]
		p := 0.0
		for c := range sm.Volts {
			p += sm.Volts[c] * sm.Amps[c]
		}
		s.total += p
	}
	t.sum = s
	return s
}

// AveragePower is the mean of the per-sample instantaneous powers.
func (t *Trace) AveragePower() units.Watts {
	if len(t.Samples) == 0 {
		return 0
	}
	s := t.integrate()
	return units.Watts(s.total / float64(s.nSamples))
}

// Energy is the paper's estimator: average power times total time.
func (t *Trace) Energy() units.Joules {
	return t.AveragePower().Mul(t.Duration)
}
