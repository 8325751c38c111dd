package bench

import "optchain/experiment"

// TableISweep is the "from scratch" offline placement sweep behind Table I:
// every strategy places the whole stream into empty shards.
func TableISweep(p Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "table1",
		Description: "offline % cross-TX from scratch per (shards x strategy) — Table I",
		Kind:        experiment.KindPlacement,
		Strategies:  []string{"Metis", "Greedy", "OmniLedger", "T2S"},
		Shards:      tableShards(p),
	}
}

// tableIIWarm returns the warm-start prefix: the paper partitions a 30M
// prefix, then streams 1M transactions; we keep the same ~30:1 proportion
// at reduced scale.
func tableIIWarm(p Params) int { return p.TableN * 30 / 31 }

// TableIISweep is the warm-start offline placement sweep behind Table II:
// a Metis partition seeds the shards and each online strategy places the
// remaining window (Metis itself is not a competitor).
func TableIISweep(p Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "table2",
		Description: "offline cross-TX count after a Metis warm start — Table II",
		Kind:        experiment.KindPlacement,
		Strategies:  []string{"Greedy", "OmniLedger", "T2S"},
		Shards:      tableShards(p),
		Warm:        tableIIWarm(p),
	}
}
