package powermon_test

import (
	"fmt"

	"repro/internal/powermon"
	"repro/internal/units"
)

// steady is a device under test drawing constant power.
type steady units.Watts

func (s steady) PowerAt(units.Seconds) units.Watts { return units.Watts(s) }

// Sampling a device and summarising the trace. AveragePower and Energy
// share one memoized integration pass over the samples, so asking for
// both costs a single traversal.
func ExampleTrace_Energy() {
	m, err := powermon.New(powermon.GPUChannels(), powermon.Config{Seed: 7})
	if err != nil {
		panic(err)
	}
	tr, err := m.Measure(steady(150), 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("samples: %d\n", len(tr.Samples))
	fmt.Printf("mean: %.1f W\n", float64(tr.AveragePower()))
	fmt.Printf("energy: %.1f J\n", float64(tr.Energy()))
	// Output:
	// samples: 128
	// mean: 150.0 W
	// energy: 150.0 J
}
