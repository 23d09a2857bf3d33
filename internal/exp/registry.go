package exp

import "fmt"

// Config scales experiment cost. Zero values take defaults.
type Config struct {
	// SuiteFiles is the number of HyperCompressBench files per suite. The
	// paper uses 8,000-10,000; the default here keeps full DSE runs in
	// minutes rather than machine-days.
	SuiteFiles int
	// MaxFileBytes caps individual benchmark file sizes.
	MaxFileBytes int
	// FleetSamples is the number of GWP-style call samples for the Section 3
	// experiments.
	FleetSamples int
	// ReplayCalls is the number of fleet calls the service-replay
	// experiments push through simulated devices.
	ReplayCalls int
	// Replicas is the maximum replica-group width the failover sweep
	// scales to.
	Replicas int
	// Devices is the number of device instances per fleet slot the replay
	// experiments fan calls across (0/1 = one per slot, a 4-device fleet).
	Devices int
	// Seed makes every experiment deterministic.
	Seed int64
}

// DefaultConfig returns the standard experiment scale.
func DefaultConfig() Config {
	return Config{
		SuiteFiles:   500,
		MaxFileBytes: 4 << 20,
		FleetSamples: 300000,
		ReplayCalls:  10000,
		Replicas:     4,
		Seed:         1,
	}
}

// QuickConfig returns a reduced scale for tests.
func QuickConfig() Config {
	return Config{
		SuiteFiles:   25,
		MaxFileBytes: 1 << 20,
		FleetSamples: 40000,
		ReplayCalls:  400,
		Replicas:     3,
		Seed:         1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SuiteFiles == 0 {
		c.SuiteFiles = d.SuiteFiles
	}
	if c.MaxFileBytes == 0 {
		c.MaxFileBytes = d.MaxFileBytes
	}
	if c.FleetSamples == 0 {
		c.FleetSamples = d.FleetSamples
	}
	if c.ReplayCalls == 0 {
		c.ReplayCalls = d.ReplayCalls
	}
	if c.Replicas == 0 {
		c.Replicas = d.Replicas
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Experiment regenerates one paper table/figure.
type Experiment struct {
	ID    string // e.g. "fig11"
	Title string
	run   func(Config) ([]*Table, error)
}

// Run regenerates the experiment's tables at cfg's scale; zero fields of cfg
// take DefaultConfig's values.
func (e Experiment) Run(cfg Config) ([]*Table, error) { return e.run(cfg.withDefaults()) }

// experiments is every experiment there is, in the order IDs lists them and
// cdpubench -all runs them: the paper's figures in paper order, then the
// extensions. dse-summary and deployment follow the figures whose grid corners
// they re-request, so a run in this order simulates each configuration once.
var experiments = []Experiment{
	{"fig1", "Fleet (de)compression cycle shares over time, by algorithm", runFig1},
	{"fig2a", "Fleet uncompressed bytes by algorithm/op", runFig2a},
	{"fig2b", "Fleet ZStd compression level distribution", runFig2b},
	{"fig2c", "Fleet aggregate compression ratios by algorithm/level", runFig2c},
	{"fig3", "Fleet call-size CDFs (Snappy/ZStd x C/D)", runFig3},
	{"fig4", "Fleet (de)compression cycles by calling library", runFig4},
	{"fig5", "Fleet ZStd window-size CDFs", runFig5},
	{"fig6", "Open-source benchmark call-size distribution", runFig6},
	{"fleet-summary", "Section 3 headline statistics", runFleetSummary},
	{"fig7", "HyperCompressBench call-size validation", runFig7},
	{"fig11", "Snappy decompression DSE: SRAM x placement", runFig11},
	{"fig12", "Snappy compression DSE: SRAM x placement (HT14)", runFig12},
	{"fig13", "Snappy compression DSE: SRAM x placement (HT9)", runFig13},
	{"fig14", "ZStd decompression DSE: SRAM x placement + speculation", runFig14},
	{"fig15", "ZStd compression DSE: SRAM x placement (HT14)", runFig15},
	{"dse-summary", "Section 6.6 design-space summary", runDSESummary},
	{"ablation-hash", "Ablation: hash function and associativity", runAblationHash},
	{"ablation-fse", "Ablation: FSE table accuracy", runAblationFSE},
	{"ablation-stats", "Ablation: symbol-stats width", runAblationStats},
	{"chaining", "Accelerator chaining vs placement (§3.5.2)", runChaining},
	{"pipelines", "Pipeline provisioning: latency vs load", runPipelines},
	{"deployment", "Fleet deployment: cycle and byte savings (§3.3)", runDeployment},
	{"levels", "Measured compression-level sweep (ratio vs cost)", runLevels},
	{"fault-sweep", "Fault injection: detection latency and degraded-device behavior", runFaultSweep},
	{"fleet-replay", "Service replay: fleet traffic through CDPU devices, by load and placement", runFleetReplay},
	{"chaos-sweep", "Chaos sweep: fault storms, recovery policy, and bounded tails", runChaosSweep},
	{"failover-sweep", "Failover sweep: replica groups under device-lifecycle storms", runFailoverSweep},
	{"openloop-sweep", "Open-loop traffic sweep: rate knee, tenant skew, SLO sheds, autoscaling", runOpenLoopSweep},
	{"overload-sweep", "Overload control plane: flash crowds, burn autoscaling, deadline admission", runOverloadSweep},
}

// ByID returns a registered experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, IDs())
}

// IDs lists the experiment ids in registry order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.ID
	}
	return out
}
