package workload

import (
	"optchain/internal/chain"
	"optchain/internal/dataset"
)

// datasetSource streams a materialized Dataset in stream order at the
// nominal arrival spacing — the in-memory counterpart of replay.
type datasetSource struct {
	d   *dataset.Dataset
	i   int
	cur *chain.Transaction
}

// FromDataset adapts d to the streaming Source interface, which is how every
// consumer that already holds a Dataset (optchain.WithDataset, the experiment
// layer's cached streams, Metis runs that materialized for their offline
// partition) feeds the simulator's single issue path. The source keeps the
// recorded transaction behind each Next (ChainTx), so per-output values that
// do not follow the SplitValue convention — a converted real trace — reach
// the ledger unchanged.
func FromDataset(d *dataset.Dataset) Source { return &datasetSource{d: d} }

func (s *datasetSource) Name() string { return "dataset" }

func (s *datasetSource) Next(tx *Tx) bool {
	if s.i >= s.d.Len() {
		return false
	}
	s.cur = s.d.Tx(s.i)
	s.i++
	tx.Inputs = tx.Inputs[:0]
	for _, op := range s.cur.Inputs {
		tx.Inputs = append(tx.Inputs, Input{Tx: dataset.Index(op.Tx), Index: op.Index})
	}
	tx.Outputs = len(s.cur.Outputs)
	tx.Value = s.cur.OutputSum()
	tx.Gap = 1
	return true
}

// ChainTx returns the recorded transaction the last Next produced.
func (s *datasetSource) ChainTx() *chain.Transaction { return s.cur }
