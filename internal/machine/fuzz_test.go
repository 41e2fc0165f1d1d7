package machine_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// FuzzMachineFromJSON fuzzes the machine file `roofline -json` reads:
// any input either fails FromJSON (the strict decode, then Validate) or
// yields a machine whose closed-form parameters core.Params.Validate
// accepts at both precisions and whose ToJSON encoding decodes again to
// the same bytes. The seed corpus holds a campaign-fitted GTX 580 and
// two edits of it that FromJSON must reject: a misspelt power_cap and a
// power cap below π0.
func FuzzMachineFromJSON(f *testing.F) {
	for _, key := range machine.DVFSCatalogKeys() {
		m, _ := machine.Find(key)
		data, err := m.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","bandwidth":1,"energy_per_byte":1,"power_cap":1,"sp":{"peak_flops":1,"energy_per_flop":1,"achieved_flop_frac":1,"achieved_bw_frac":1},"dp":{"peak_flops":1,"energy_per_flop":1,"achieved_flop_frac":1,"achieved_bw_frac":1}}`))
	f.Add([]byte(`{"name":"x"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := machine.FromJSON(data)
		if err != nil {
			return
		}
		for _, prec := range []machine.Precision{machine.Single, machine.Double} {
			if err := core.FromMachine(m, prec).Validate(); err != nil {
				t.Fatalf("FromJSON accepted a machine whose %v parameters are invalid: %v", prec, err)
			}
		}
		enc, err := m.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := machine.FromJSON(enc)
		if err != nil {
			t.Fatalf("the encoding of an accepted machine is rejected: %v\n%s", err, enc)
		}
		again, err := back.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("ToJSON does not round-trip:\n%s\nthen\n%s", enc, again)
		}
	})
}
