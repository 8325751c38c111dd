package workload

import (
	"fmt"

	"optchain/internal/dataset"
)

// bitcoin wraps the calibrated Bitcoin-like generator (internal/dataset) —
// the paper's evaluation workload, with TaN degree statistics matching
// Fig. 2 — behind the streaming Source interface. Draining it reproduces
// dataset.Generate for the same parameters, transaction for transaction.
//
// Knobs (defaults are the calibration in dataset.DefaultConfig):
//
//	communities  active wallet communities (64)
//	intra        probability an input is drawn from the owner community (1.0)
//	hubevery     hub (batch payer) cadence in transactions (250)
//	hubfanout    hub transaction output bound (60)
type bitcoinSource struct {
	s  *dataset.Stream
	st dataset.StreamTx
}

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
	return &bitcoinSource{s: s}, nil
}

func (b *bitcoinSource) Name() string { return "bitcoin" }

func (b *bitcoinSource) Next(tx *Tx) bool {
	if !b.s.Next(&b.st) {
		return false
	}
	tx.Inputs = tx.Inputs[:0]
	for j := range b.st.InTx {
		tx.Inputs = append(tx.Inputs, Input{Tx: int(b.st.InTx[j]), Index: b.st.InIdx[j]})
	}
	tx.Outputs = b.st.Outputs
	tx.Value = b.st.Value
	tx.Gap = 1
	return true
}
