package workload

import "optchain/internal/dataset"

// datasetSource streams a materialized Dataset in stream order at the
// nominal arrival spacing — the in-memory counterpart of replay.
type datasetSource struct {
	d *dataset.Dataset
	i int
}

// FromDataset adapts d to the streaming Source interface, which is how every
// consumer that already holds a Dataset (optchain.WithDataset, the experiment
// layer's cached streams, Metis runs that materialized for their offline
// partition) feeds the simulator's single issue path. Each transaction
// carries its recorded per-output values (Tx.OutVals), as replay's do.
func FromDataset(d *dataset.Dataset) Source { return &datasetSource{d: d} }

func (s *datasetSource) Name() string { return "dataset" }

func (s *datasetSource) Next(tx *Tx) bool {
	if s.i >= s.d.Len() {
		return false
	}
	s.d.ReadTx(s.i, tx)
	s.i++
	return true
}
