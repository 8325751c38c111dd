package workload

import (
	"fmt"
	"os"
	"strings"

	"optchain/internal/dataset"
)

// replay streams a recorded .tan trace file (written by tangen or converted
// from a real Bitcoin extract) through the incremental dataset decoder —
// one transaction per Next call, nothing materialized — and optionally
// superimposes an arrival Modulator (burst flash crowds, diurnal drift) on
// the real trace structure. Unmodulated at speed 1, the replayed stream
// reproduces the trace's transaction order exactly: materializing it
// re-encodes byte-for-byte for any trace following the SplitValue output
// convention (everything tangen writes).
//
// Spec syntax (see Parse): the trace path is the positional argument or
// file=; mod= takes a modulator spec, parenthesized when it has knobs:
//
//	replay:trace.tan
//	replay:file=trace.tan,speed=2
//	replay:trace.tan,mod=(burst:boost=4,onmean=600)
//	replay:trace.tan,mod=drift
//
// (Paths containing "," or ":" cannot be spelled in a spec; build the
// source programmatically with Params.Args in that case.)
//
// Knobs and arguments:
//
//	FILE / file=  trace path (required)
//	mod=          arrival modulator spec: burst[:...] or drift[:...]
//	speed         uniform playback-rate multiplier (default 1; 2 = replay
//	              at twice the nominal offered rate)
//
// The stream ends after min(Params.N, trace length) transactions. A
// truncated or corrupt trace ends the stream early; the failure is
// reported through the Failer interface (Materialize and the simulator
// check it), not swallowed as a short stream.
type replaySource struct {
	f     *os.File
	ds    *dataset.DecodeStream
	mod   Modulator
	speed float64
	n, i  int
	err   error
	done  bool
	st    dataset.StreamTx
}

func init() {
	scenarios.Must("replay", newReplay)
}

func newReplay(p Params) (Source, error) {
	// Validate arguments before touching the filesystem, so knob typos
	// surface even when the file argument is missing or wrong.
	var file, modSpec string
	for _, a := range p.Args {
		switch {
		case a.Key == "":
			if file != "" {
				return nil, fmt.Errorf("%w: replay got two trace files (%q and %q)", ErrBadParam, file, a.Value)
			}
			file = a.Value
		case strings.EqualFold(a.Key, "file"):
			if file != "" {
				return nil, fmt.Errorf("%w: replay got two trace files (%q and %q)", ErrBadParam, file, a.Value)
			}
			file = a.Value
		case strings.EqualFold(a.Key, "mod"):
			modSpec = a.Value
		case strings.EqualFold(a.Key, "speed") && a.IsNum:
			// Mirrored into Knobs; consumed below.
		default:
			tok := a.Key + "=" + a.Value
			return nil, fmt.Errorf("%w: replay has no argument %q (have FILE, file=, mod=, speed=)", ErrBadParam, tok)
		}
	}
	if err := checkKnobs("replay", p.Knobs, "speed"); err != nil {
		return nil, err
	}
	speed := p.Knob("speed", 1)
	if speed <= 0 {
		return nil, fmt.Errorf("%w: replay needs speed > 0, got %v", ErrBadParam, speed)
	}
	var mod Modulator
	if modSpec != "" {
		var err error
		mod, err = NewModulator(modSpec, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("replay mod: %w", err)
		}
	}
	if file == "" {
		return nil, fmt.Errorf("%w: replay needs a trace file (replay:FILE or replay:file=FILE)", ErrBadParam)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, fmt.Errorf("%w: replay: %v", ErrBadParam, err)
	}
	ds, err := dataset.NewDecodeStream(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: replay %s: %v", ErrBadParam, file, err)
	}
	n := ds.N()
	if p.N > 0 && p.N < n {
		n = p.N
	}
	return &replaySource{f: f, ds: ds, mod: mod, speed: speed, n: n}, nil
}

func (r *replaySource) Name() string { return "replay" }

// close releases the trace file once, at end of stream or failure.
func (r *replaySource) close() {
	if !r.done {
		r.done = true
		r.f.Close()
	}
}

// Close implements io.Closer for drivers that abandon the replay before
// draining it (workload.Close); draining to the end self-releases.
func (r *replaySource) Close() error {
	r.close()
	return nil
}

// Err implements Failer: the trace decode failure that ended the stream.
func (r *replaySource) Err() error { return r.err }

func (r *replaySource) Next(tx *Tx) bool {
	if r.done || r.i >= r.n {
		r.close()
		return false
	}
	if !r.ds.Next(&r.st) {
		r.err = r.ds.Err()
		r.close()
		return false
	}
	tx.Inputs = tx.Inputs[:0]
	for j := range r.st.InTx {
		tx.Inputs = append(tx.Inputs, Input{Tx: int(r.st.InTx[j]), Index: r.st.InIdx[j]})
	}
	tx.Outputs = r.st.Outputs
	tx.Value = r.st.Value
	gap := 1.0
	if r.mod != nil {
		gap = r.mod.Step()
	}
	tx.Gap = gap / r.speed
	r.i++
	return true
}

// Compile-time interface compliance check.
var _ Failer = (*replaySource)(nil)
