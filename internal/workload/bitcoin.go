package workload

import (
	"fmt"

	"optchain/internal/dataset"
)

// bitcoin wraps the calibrated Bitcoin-like generator (internal/dataset) —
// the paper's evaluation workload, with TaN degree statistics matching
// Fig. 2 — behind the streaming Source interface, and the stream Engine.Run
// simulates when no workload is named. Draining it reproduces
// dataset.Generate for the same parameters, transaction for transaction, so
// a materialized "bitcoin" (the one optchain.MaterializeWorkload returns)
// is the same stream a live one is.
//
// Knobs (defaults are the calibration in dataset.DefaultConfig):
//
//	communities  active wallet communities (64)
//	intra        probability an input is drawn from the owner community (1.0)
//	hubevery     hub (batch payer) cadence in transactions (250)
//	hubfanout    hub transaction output bound (60)
type bitcoinSource struct{ *dataset.Stream }

func init() {
	scenarios.Must("bitcoin", newBitcoin)
}

func newBitcoin(p Params) (Source, error) {
	if err := checkArgs("bitcoin", p, "communities", "intra", "hubevery", "hubfanout"); err != nil {
		return nil, err
	}
	cfg := dataset.DefaultConfig()
	cfg.N = p.N
	cfg.Seed = p.Seed
	cfg.Communities = int(p.Knob("communities", float64(cfg.Communities)))
	cfg.IntraProb = p.Knob("intra", cfg.IntraProb)
	cfg.HubEvery = int(p.Knob("hubevery", float64(cfg.HubEvery)))
	cfg.HubFanout = int(p.Knob("hubfanout", float64(cfg.HubFanout)))
	if cfg.Communities < 1 || cfg.HubEvery < 1 || cfg.HubFanout < 1 {
		return nil, fmt.Errorf("%w: bitcoin knobs must be >= 1", ErrBadParam)
	}
	s, err := dataset.NewStream(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
	}
	return bitcoinSource{s}, nil
}

func (bitcoinSource) Name() string { return "bitcoin" }
