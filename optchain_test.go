package optchain_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"optchain"
)

func smallData(t *testing.T) *optchain.Dataset { return smallDataset(t, 8000) }

// placeAll streams the whole dataset through a fresh engine running the
// named strategy over k shards and returns its statistics.
func placeAll(t *testing.T, strategy string, k int, d *optchain.Dataset, opts ...optchain.Option) optchain.PlacementStats {
	t.Helper()
	eng, err := optchain.New(append([]optchain.Option{
		optchain.WithStrategy(strategy),
		optchain.WithShards(k),
		optchain.WithStreamCapacity(d.Len()),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.PlaceStream(optchain.DatasetStream(d))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFacadeCrossShardOrdering(t *testing.T) {
	d := smallData(t)
	const k = 8
	oc := placeAll(t, "OptChain", k, d).CrossFraction
	rnd := placeAll(t, "OmniLedger", k, d).CrossFraction
	if oc >= rnd {
		t.Fatalf("OptChain %.3f not below random %.3f", oc, rnd)
	}
	if rnd < 0.7 {
		t.Fatalf("random cross fraction %.3f implausible at k=8", rnd)
	}
}

func TestFacadeAllStrategiesConstruct(t *testing.T) {
	d := smallData(t)
	for _, s := range []string{"OptChain", "T2S", "OmniLedger", "Greedy"} {
		st := placeAll(t, s, 4, d)
		if st.Placed != d.Len() || st.CrossFraction < 0 || st.CrossFraction > 1 {
			t.Fatalf("%s: placed %d of %d, cross fraction %v", s, st.Placed, d.Len(), st.CrossFraction)
		}
	}
}

func TestFacadeNewPlacerErrors(t *testing.T) {
	if _, err := optchain.New(optchain.WithStrategy("nope"), optchain.WithStreamCapacity(100)); !errors.Is(err, optchain.ErrUnknownStrategy) {
		t.Fatalf("unknown strategy error = %v", err)
	}
	if _, err := optchain.New(optchain.WithShards(0), optchain.WithStreamCapacity(100)); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("k=0 error = %v", err)
	}
	if _, err := optchain.New(optchain.WithStreamCapacity(-1)); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("negative capacity error = %v", err)
	}
	// Metis without a partition is runnable only through Engine.Run (which
	// computes one) — streaming placement must error, not panic.
	eng, err := optchain.New(optchain.WithStrategy("Metis"), optchain.WithShards(4), optchain.WithStreamCapacity(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Place(optchain.StreamTx{Outputs: 1}); err == nil {
		t.Fatal("Metis without partition accepted")
	}
}

func TestFacadeMetisPartition(t *testing.T) {
	d := smallData(t)
	part, err := optchain.PartitionTaN(d, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != d.Len() {
		t.Fatalf("partition covers %d of %d", len(part), d.Len())
	}
	if frac := placeAll(t, "Metis", 4, d, optchain.WithMetisPartition(part)).CrossFraction; frac > 0.5 {
		t.Fatalf("metis cross fraction %.3f too high", frac)
	}
}

func TestFacadeMetisPlacerRejectsBadPartition(t *testing.T) {
	if _, err := optchain.New(optchain.WithStrategy("Metis"), optchain.WithShards(4),
		optchain.WithMetisPartition([]int32{0, 1, 9})); !errors.Is(err, optchain.ErrBadShard) {
		t.Fatalf("out-of-range partition error = %v", err)
	}
	if _, err := optchain.New(optchain.WithStrategy("Metis"),
		optchain.WithMetisPartition([]int32{0, -1})); !errors.Is(err, optchain.ErrBadShard) {
		t.Fatalf("negative partition entry error = %v", err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	const n = 8000
	eng, err := optchain.New(
		optchain.WithTxs(n),
		optchain.WithShards(4),
		optchain.WithValidators(8),
		optchain.WithRate(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d of %d", res.Committed, n)
	}
}

func TestFacadeTelemetryPlacer(t *testing.T) {
	d := smallData(t)
	tel := optchain.StaticTelemetry{
		Comm:   []float64{10, 10},
		Verify: []float64{1, 0.01}, // shard 1 is slow
	}
	counts := placeAll(t, "OptChain", 2, d, optchain.WithTelemetry(tel)).ShardCounts
	if counts[1] >= counts[0] {
		t.Fatalf("slow shard got %d of %d placements", counts[1], counts[0]+counts[1])
	}
}

func TestFacadeDatasetRoundTrip(t *testing.T) {
	d := smallData(t)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := optchain.LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), d.Len())
	}
}
