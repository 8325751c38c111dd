package workload

import "optchain/internal/dataset"

// datasetSource streams a materialized Dataset in stream order at the
// nominal arrival spacing — the in-memory counterpart of replay.
type datasetSource struct {
	d *dataset.Dataset
	i int
}

// FromDataset adapts d to the streaming Source interface, which is how every
// consumer that already holds a Dataset (optchain.WithDataset, and the Metis
// runs and Metis sweep cells that materialized for their offline partition)
// feeds the simulator's single issue path. Each transaction carries its
// recorded per-output values (Tx.OutVals), as replay's do. The replay is at
// nominal spacing (Gap 1) and takes no placement feedback, so it equals the
// live run only of a source that spaces nominally and ignores feedback
// (bitcoin, hotspot, drift; not burst or adversarial).
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
