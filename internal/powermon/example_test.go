package powermon_test

import (
	"fmt"

	"repro/internal/powermon"
	"repro/internal/units"
)

// steady is a device under test drawing constant power.
type steady units.Watts

func (s steady) PowerAt(units.Seconds) units.Watts { return units.Watts(s) }

// Measuring a device's energy the paper's way: sample every rail at
// 128 Hz, average ΣV·I over the samples, multiply by the run time.
func ExampleMonitor_Energy() {
	m, err := powermon.New(powermon.GPUChannels(), powermon.Config{Seed: 7})
	if err != nil {
		panic(err)
	}
	e, err := m.Energy(steady(150), 2.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean: %.1f W\n", float64(e)/2)
	fmt.Printf("energy: %.1f J\n", float64(e))
	// Output:
	// mean: 150.0 W
	// energy: 300.0 J
}
