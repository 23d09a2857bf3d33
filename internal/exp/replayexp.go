package exp

import (
	"fmt"

	"cdpu/internal/memsys"
	"cdpu/internal/sim"
)

// runFleetReplay sweeps offered load and placement through the sharded
// replay engine. The replay's worker pool is sized by the package worker
// setting (SetWorkers / cdpubench -workers); the numbers it reports are
// independent of that setting by construction.
func runFleetReplay(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "Service replay: fleet-sampled Snappy/ZStd calls on CDPU devices",
		Note: fmt.Sprintf("%d calls per cell; single pipeline per direction; software column is the Xeon service-time lower bound.",
			cfg.ReplayCalls),
		Columns: []string{"GB/s", "placement", "mean-us", "p99-us", "sw-mean-us", "comp-util", "decomp-util", "xeon-cores", "mm2"},
	}
	for _, load := range []float64{0.5, 2.0, 6.0} {
		for _, placement := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
			r, err := sim.Run(sim.Config{
				Seed:        cfg.Seed,
				Calls:       cfg.ReplayCalls,
				OfferedGBps: load,
				Pipelines:   1,
				Placement:   placement,
				Workers:     Workers(),
				Devices:     cfg.Devices,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("%.1f", load),
				fmt.Sprint(placement),
				fmt.Sprintf("%.1f", r.MeanLatencyUs),
				fmt.Sprintf("%.1f", r.P99LatencyUs),
				fmt.Sprintf("%.1f", r.SoftwareMeanLatencyUs),
				pct(r.CompUtil),
				pct(r.DecompUtil),
				fmt.Sprintf("%.2f", r.XeonCoresNeeded),
				fmt.Sprintf("%.2f", r.AreaMM2),
			)
		}
	}
	return []*Table{t}, nil
}
