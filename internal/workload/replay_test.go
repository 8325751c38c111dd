package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"optchain/internal/dataset"
)

// writeTrace records a generated dataset as a .tan file (what tangen does)
// and returns its path and canonical bytes.
func writeTrace(t *testing.T, n int, seed int64) (string, []byte) {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = seed
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.tan")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestReplayRoundTrip: an unmodulated replay of a recorded trace reproduces
// the trace's transaction order byte-for-byte when re-materialized.
func TestReplayRoundTrip(t *testing.T) {
	const n = 3000
	path, want := writeTrace(t, n, 13)
	src := build(t, "replay:"+path, Params{N: n, Seed: 1})
	d, err := Materialize(src, n)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := d.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("replayed trace re-encodes differently from the recording")
	}
	// And every gap is exactly nominal when no modulator is set.
	src2 := build(t, "replay:file="+path, Params{N: n, Seed: 1})
	for _, tx := range drain(t, src2, n) {
		if tx.Gap != 1 {
			t.Fatalf("unmodulated replay emitted gap %v", tx.Gap)
		}
	}
}

// TestReplayKeepsRecordedValues: a converted trace whose values are not an
// even split goes Encode -> replay: -> Materialize -> Encode byte for byte,
// and each replayed transaction carries its recorded OutVals.
func TestReplayKeepsRecordedValues(t *testing.T) {
	var want bytes.Buffer
	if err := convertExcerpt(t).Encode(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "real.tan")
	if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Materialize(build(t, "replay:"+path, Params{Seed: 1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := d.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("replayed excerpt re-encodes differently from the recording")
	}
	txs := drain(t, build(t, "replay:"+path, Params{Seed: 1}), 3)
	if len(txs) != 2 || !slices.Equal(txs[1].OutVals, []int64{3000000000, 1900000000}) {
		t.Fatalf("replayed %+v, want tx 1 with OutVals 3000000000|1900000000", txs)
	}
}

// TestReplayTruncatesToN: Params.N caps the replayed prefix.
func TestReplayTruncatesToN(t *testing.T) {
	path, _ := writeTrace(t, 2000, 5)
	src := build(t, "replay:"+path, Params{N: 500, Seed: 1})
	if got := len(drain(t, src, 2000)); got != 500 {
		t.Fatalf("replayed %d transactions, want 500", got)
	}
}

// TestReplayModulated: a burst modulator compresses some arrivals, a drift
// modulator spreads gaps around 1, and speed scales every gap.
func TestReplayModulated(t *testing.T) {
	const n = 4000
	path, _ := writeTrace(t, n, 7)
	burst := drain(t, build(t, "replay:"+path+",mod=(burst:boost=4)", Params{N: n, Seed: 3}), n)
	fast, slow := 0, 0
	for _, tx := range burst {
		switch {
		case tx.Gap == 1:
			slow++
		case tx.Gap == 0.25:
			fast++
		default:
			t.Fatalf("burst-modulated replay emitted gap %v", tx.Gap)
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("burst modulation phases missing: %d fast, %d slow", fast, slow)
	}
	drift := drain(t, build(t, "replay:"+path+",mod=(drift:period=1000,amp=0.5)", Params{N: n, Seed: 3}), n)
	lo, hi := false, false
	for _, tx := range drift {
		if tx.Gap < 0.99 {
			lo = true
		}
		if tx.Gap > 1.01 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatal("drift modulation did not swing gaps around nominal")
	}
	for _, tx := range drain(t, build(t, "replay:"+path+",speed=2", Params{N: n, Seed: 3}), n) {
		if tx.Gap != 0.5 {
			t.Fatalf("speed=2 replay emitted gap %v", tx.Gap)
		}
	}
}

// TestReplayValidation: missing files, missing file arguments, unknown
// arguments, and bad modulators fail with clear errors.
func TestReplayValidation(t *testing.T) {
	path, _ := writeTrace(t, 100, 1)
	for _, spec := range []string{
		"replay",
		"replay:/no/such/file.tan",
		"replay:" + path + ",bogus=1",
		"replay:" + path + ",mod=hotspot",
		"replay:" + path + ",speed=0",
		"replay:" + path + ",mod=(burst:boost=0.5)",
	} {
		if _, err := New(spec, Params{N: 100}); !errors.Is(err, ErrBadParam) {
			t.Errorf("New(%q) error = %v, want ErrBadParam", spec, err)
		}
	}
}

// TestReplayCorruptTraceFails: a truncated trace surfaces through the
// Failer interface instead of masquerading as a short stream.
func TestReplayCorruptTraceFails(t *testing.T) {
	_, raw := writeTrace(t, 1000, 2)
	cut := filepath.Join(t.TempDir(), "cut.tan")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	src := build(t, "replay:"+cut, Params{N: 1000})
	if _, err := Materialize(src, 1000); err == nil || !errors.Is(err, dataset.ErrBadFormat) {
		t.Fatalf("Materialize of a truncated trace = %v, want ErrBadFormat", err)
	}
}

// TestModulatorSpecs: NewModulator rejects non-modulator scenarios and
// unknown knobs.
func TestModulatorSpecs(t *testing.T) {
	if _, err := NewModulator("burst:boost=3", 1); err != nil {
		t.Fatalf("burst modulator: %v", err)
	}
	if _, err := NewModulator("drift", 1); err != nil {
		t.Fatalf("drift modulator: %v", err)
	}
	if _, err := NewModulator("bitcoin", 1); !errors.Is(err, ErrBadParam) {
		t.Fatalf("non-modulator error = %v", err)
	}
	if _, err := NewModulator("burst:fanout=8", 1); !errors.Is(err, ErrBadParam) {
		t.Fatalf("scenario-only knob on modulator error = %v", err)
	}
}

// TestReplayCloseReleasesUndrained: abandoning a replay (or a mix holding
// one) before draining releases the trace file via workload.Close.
func TestReplayCloseReleasesUndrained(t *testing.T) {
	path, _ := writeTrace(t, 500, 4)
	src := build(t, "replay:"+path, Params{N: 500})
	var tx Tx
	src.Next(&tx) // partially consumed, never drained
	Close(src)
	if !src.(*replaySource).done {
		t.Fatal("Close did not release the replay trace file")
	}
	mixed := build(t, "mix:(replay:"+path+")=0.5,bitcoin=0.5", Params{N: 500})
	Close(mixed)
	for _, c := range mixed.(*mixSource).comps {
		if r, ok := c.src.(*replaySource); ok && !r.done {
			t.Fatal("mix Close did not release its replay component")
		}
	}
}
