// Package powermon simulates the paper's measurement apparatus: a
// PowerMon 2 board plus PCIe interposer (§IV-A, Fig. 3). It samples the
// instantaneous power of a running kernel on several DC channels at a
// configurable rate (the paper samples at 128 Hz per channel, a 7.8125 ms
// period), reads a noisy voltage and current per channel, and computes
// energy exactly the way the paper does: per-sample power is ΣV·I over
// channels, average power is the mean over samples, and energy is
// average power times total time. One sampling loop serves both entry
// points and integrates each reading as it is taken, so a measurement
// stores no trace: Energy draws the noise from the monitor's own stream,
// EnergyDerived from a stream derived from the monitor's seed and a set
// of task labels.
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
}

// maxSamples bounds one measurement: 4 Mi samples, over an hour at
// PowerMon 2's top rate of 1024 Hz.
const maxSamples = 4 << 20

// Monitor samples a Source over a set of channels.
type Monitor struct {
	channels []Channel
	cfg      Config
	rng      *stats.Rand
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
	return &Monitor{
		channels: append([]Channel(nil), channels...),
		cfg:      cfg,
		rng:      stats.NewRand(cfg.Seed),
	}, nil
}

// Energy measures src for the given duration and returns the paper's
// estimator: the mean of the sampled powers times the duration. The
// noise comes from the monitor's own sequential stream, so successive
// calls give successive measurements and a Monitor must not be shared
// across goroutines; concurrent tasks use EnergyDerived.
func (m *Monitor) Energy(src Source, duration units.Seconds) (units.Joules, error) {
	return m.energy(m.rng, src, duration)
}

// EnergyDerived is Energy on an independent noise stream derived from
// the monitor's seed and the given labels (see stats.DeriveSeed): equal
// labels give identical measurements, different labels uncorrelated
// ones. It never touches the monitor's own stream, so it is safe to call
// concurrently and invisible to sequential users of Energy. The stream
// is borrowed from a pool, so a call allocates nothing.
func (m *Monitor) EnergyDerived(labels []uint64, src Source, duration units.Seconds) (units.Joules, error) {
	rng := stats.BorrowDerived(m.cfg.Seed, labels...)
	defer rng.Release()
	return m.energy(rng, src, duration)
}

// energy is the sampling loop. The first sample is taken at half a
// period (mid-interval sampling), the rest at the channel rate; a run
// shorter than one period still takes one sample, at its end. Each
// sample draws a voltage and a current reading per channel, in channel
// order, and adds their products to the running sum.
func (m *Monitor) energy(rng *stats.Rand, src Source, duration units.Seconds) (units.Joules, error) {
	if duration <= 0 {
		return 0, errors.New("powermon: non-positive duration")
	}
	period := 1 / m.cfg.RateHz
	n := int(float64(duration) / period)
	if n < 1 {
		n = 1
	}
	if n > maxSamples {
		return 0, fmt.Errorf("powermon: %d samples exceed limit %d; lower the rate or shorten the run", n, maxSamples)
	}
	total := 0.0
	for i := 0; i < n; i++ {
		ts := units.Seconds((float64(i) + 0.5) * period)
		if ts > duration {
			ts = duration
		}
		truth := float64(src.PowerAt(ts))
		p := 0.0
		for _, ch := range m.channels {
			v := ch.NominalVolts * rng.RelNoise(m.cfg.VoltNoiseSD)
			// The board reports the current, so the power is read back
			// as v·(P/v), which is not P in floating point.
			a := truth * ch.Share * rng.RelNoise(m.cfg.CurrNoiseSD) / v
			p += v * a
		}
		total += p
	}
	return units.Watts(total / float64(n)).Mul(duration), nil
}
