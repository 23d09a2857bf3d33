package exp

import "testing"

// BenchmarkDSEFigure times one cold pass of each design-space sweep the
// dse-sweep benchmark workload runs, at that workload's suite sizes. The
// suites are built before the timer starts; every iteration calls
// SetWorkers(1), which drops the configuration-run and trace memos, so each
// pass re-traces and re-times every configuration on one worker.
func BenchmarkDSEFigure(b *testing.B) {
	cfg := Config{SuiteFiles: 200, MaxFileBytes: 1 << 20, Seed: 1}
	defer SetWorkers(Workers())
	for _, id := range []string{"fig11", "fig12", "fig14", "fig15"} {
		b.Run(id, func(b *testing.B) {
			e, err := ByID(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(cfg); err != nil { // builds the suite
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SetWorkers(1)
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
