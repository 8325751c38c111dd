package experiment

import (
	"slices"
	"testing"

	"optchain"
)

// TestDatasetCacheKeyedByLength: a materialized stream is built once per
// length, and another length gets its own stream of that length.
func TestDatasetCacheKeyedByLength(t *testing.T) {
	r := NewRunner(Params{Quick: true, N: 4000, TableN: 20000, Seed: 1})
	a, err := r.dataset(1000, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.dataset(1000, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset cache miss")
	}
	c, err := r.dataset(2000, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Len() != 2000 {
		t.Fatal("wrong dataset for different length")
	}
}

// TestDatasetCacheKeyedByResolvedSpec: a cell with no workload and one
// spelling out the default run the same stream, so they share one
// materialization and one Metis partition instead of building each twice.
func TestDatasetCacheKeyedByResolvedSpec(t *testing.T) {
	const n, k = 1000, 4
	r := NewRunner(Params{Quick: true, Seed: 1})
	a, err := r.dataset(n, k, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.dataset(n, k, r.p.WorkloadLabel())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("dataset(%d, %q) and dataset(%d, \"\") are two streams", n, r.p.WorkloadLabel(), n)
	}
	pa, err := r.partition(n, k, "")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := r.partition(n, k, r.p.WorkloadLabel())
	if err != nil {
		t.Fatal(err)
	}
	if &pa[0] != &pb[0] {
		t.Fatal("the default workload was partitioned twice")
	}
	if len(r.data) != 1 || len(r.parts) != 1 {
		t.Fatalf("%d streams and %d partitions cached, want 1 and 1", len(r.data), len(r.parts))
	}
}

// TestDatasetIsTheWorkload: Params.Workload swaps the materialized stream
// for the selected scenario at the asked length.
func TestDatasetIsTheWorkload(t *testing.T) {
	r := NewRunner(Params{Quick: true, N: 1500, TableN: 4000, Seed: 1, Workload: "mix:bitcoin=0.7,hotspot=0.3"})
	d, err := r.dataset(1500, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1500 {
		t.Fatalf("materialized workload length = %d", d.Len())
	}
	// The mix stream must differ from the calibrated default generator.
	plain := NewRunner(Params{Quick: true, N: 1500, Seed: 1})
	pd, err := plain.dataset(1500, 16, "")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < d.Len() && same; i++ {
		same = d.NumInputs(i) == pd.NumInputs(i) && d.NumOutputs(i) == pd.NumOutputs(i)
	}
	if same {
		t.Fatal("workload dataset is identical to the calibrated default")
	}
}

// TestPartitionMatchesPartitionTaN: the sweeps and optchain.PartitionTaN
// (which Engine.Run's Metis runs use) compute one partition: the same
// stream, shard count and seed give the same shard for every transaction.
func TestPartitionMatchesPartitionTaN(t *testing.T) {
	const n, k = 3000, 8
	r := NewRunner(Params{Quick: true, N: 1200, TableN: 3000, Seed: 1, Validators: 4})
	got, err := r.partition(n, k, "")
	if err != nil {
		t.Fatal(err)
	}
	p := r.Params()
	d, err := optchain.MaterializeWorkload(p.WorkloadLabel(), optchain.WorkloadParams{N: n, Seed: p.Seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := optchain.PartitionTaN(d, k, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("Runner.partition and PartitionTaN partition the same stream differently")
	}
}

// TestDatasetCacheKeyedByShardsWhenShardAware: a shard-blind stream is
// materialized once for every shard count; an adversarial one once per
// shard count, each the stream the workload generates for that count.
func TestDatasetCacheKeyedByShardsWhenShardAware(t *testing.T) {
	const n = 3000
	r := NewRunner(Params{Quick: true, Seed: 1})
	a, err := r.dataset(n, 4, "bitcoin")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.dataset(n, 16, "bitcoin")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("a shard-blind stream was materialized once per shard count")
	}
	for _, k := range []int{4, 16} {
		got, err := r.dataset(n, k, "adversarial")
		if err != nil {
			t.Fatal(err)
		}
		want, err := optchain.MaterializeWorkload("adversarial", optchain.WorkloadParams{N: n, Seed: 1, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		var gotIn, wantIn []int32
		for i := 0; i < n; i++ {
			gotIn = append(gotIn, got.InputTxNodes(i, nil)...)
			wantIn = append(wantIn, want.InputTxNodes(i, nil)...)
		}
		if !slices.Equal(gotIn, wantIn) {
			t.Fatalf("k=%d: the cached adversarial stream is not the one generated for %d shards", k, k)
		}
	}
	if len(r.data) != 3 {
		t.Fatalf("%d streams cached, want 3", len(r.data))
	}
}
