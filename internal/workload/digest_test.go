package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// digestSpecs are the streams TestStreamDigests pins: every registered
// standalone scenario plus the benchmark's mix-ids composition.
var digestSpecs = []string{
	"bitcoin",
	"hotspot",
	"adversarial",
	"burst",
	"drift",
	"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05",
}

// streamDigest is the FNV-1a hash of the first n transactions of spec
// (seed 1, 16 shards): each transaction's inputs, output count, value and
// gap, little-endian.
func streamDigest(t *testing.T, spec string, n int) uint64 {
	t.Helper()
	src := build(t, spec, Params{N: n, Seed: 1, Shards: 16})
	defer Close(src)
	h := fnv.New64a()
	var buf []byte
	var tx Tx
	got := 0
	for ; got < n && src.Next(&tx); got++ {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(tx.Inputs)))
		for _, in := range tx.Inputs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Tx))
			buf = binary.LittleEndian.AppendUint32(buf, in.Index)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(tx.Outputs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tx.Value))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tx.Gap))
		h.Write(buf)
	}
	if got != n {
		t.Fatalf("%s: stream ended after %d of %d transactions", spec, got, n)
	}
	return h.Sum64()
}

// TestStreamDigests pins the first 200k transactions of every benchmarked
// stream. A generator change that is meant to be pure speed must leave all
// of them as they are; one that re-shapes a stream re-records them here.
func TestStreamDigests(t *testing.T) {
	want := map[string]uint64{
		"bitcoin":     0x09be037284b82b94,
		"hotspot":     0xa6724059671f9dfd,
		"adversarial": 0xb342061d576406a8,
		"burst":       0x45707ee9311439ef,
		"drift":       0x0cea4c713b069eca,
		"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05": 0xd137f355e8baff55,
	}
	for _, spec := range digestSpecs {
		if got := streamDigest(t, spec, 200_000); got != want[spec] {
			t.Errorf("%s: digest %#016x, want %#016x", spec, got, want[spec])
		}
	}
}

// BenchmarkStreams reports each pinned stream's generation cost per
// transaction (ns/op is ns/tx), from a fresh b.N-long stream.
func BenchmarkStreams(b *testing.B) {
	for _, spec := range digestSpecs {
		name, _, _ := strings.Cut(spec, ":")
		b.Run(name, func(b *testing.B) {
			src, err := New(spec, Params{N: b.N, Seed: 1, Shards: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer Close(src)
			var tx Tx
			for i := 0; i < b.N && src.Next(&tx); i++ {
			}
		})
	}
}
