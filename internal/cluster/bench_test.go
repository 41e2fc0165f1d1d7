package cluster

import (
	"context"
	"testing"
)

// BenchmarkFleet runs the two scenarios BENCH_cluster.json records:
// cluster_1m, the open loop, and closed_1m, where every arrival goes
// through the event queue. One op is one full RunScenario, so run it
// with -benchtime 1x. sim_rps is simulated requests, over every policy
// cell, per wall second: the simulator's own throughput.
func BenchmarkFleet(b *testing.B) {
	for _, name := range []string{"cluster_1m", "closed_1m"} {
		sc := Scenarios()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			simulated := 0
			for i := 0; i < b.N; i++ {
				rep, err := RunScenario(context.Background(), sc, Options{})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range rep.Policies {
					simulated += p.Requests
				}
			}
			b.ReportMetric(float64(simulated)/b.Elapsed().Seconds(), "sim_rps")
		})
	}
}
