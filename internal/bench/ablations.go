package bench

import "optchain/experiment"

// L2SSweep compares full OptChain against the capacity-bounded T2S-only
// strategy at the peak configuration (ablation A1).
func L2SSweep(p Params) experiment.Sweep {
	k, r := maxGrid(p)
	return experiment.Sweep{
		Name:        "l2s",
		Description: "L2S term on/off: OptChain vs capacity-bounded T2S under load (ablation A1)",
		Strategies:  []string{"OptChain", "T2S"},
		Shards:      []int{k},
		Rates:       []float64{r},
	}
}

// AlphaSweep sweeps the PageRank damping factor on the offline cross-TX
// objective (ablation A2; the paper fixes α=0.5).
func AlphaSweep(p Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "alpha",
		Description: "PageRank damping factor sensitivity on offline cross-TX % (ablation A2)",
		Kind:        experiment.KindPlacement,
		Strategies:  []string{"T2S"},
		Shards:      []int{16},
		Alphas:      []float64{0.1, 0.3, 0.5, 0.7, 0.9},
	}
}

// WeightSweep sweeps the Temporal Fitness L2S coefficient at the peak
// configuration (ablation A3; the paper fixes 0.01).
func WeightSweep(p Params) experiment.Sweep {
	k, r := maxGrid(p)
	return experiment.Sweep{
		Name:        "weight",
		Description: "Temporal Fitness L2S coefficient sweep (ablation A3)",
		Strategies:  []string{"OptChain"},
		Shards:      []int{k},
		Rates:       []float64{r},
		L2SWeights:  []float64{0.003, 0.01, 0.03, 0.1, 0.3},
	}
}

// BackendSweep crosses commit backends with placement on/off (ablation A4):
// the paper's closing prediction that the benefit transfers to RapidChain.
func BackendSweep(p Params) experiment.Sweep {
	k, r := maxGrid(p)
	return experiment.Sweep{
		Name:        "backend",
		Description: "protocol backend x placement on/off (ablation A4)",
		Protocols:   []string{"omniledger", "rapidchain"},
		Strategies:  []string{"OptChain", "OmniLedger"},
		Shards:      []int{k},
		Rates:       []float64{r},
	}
}
