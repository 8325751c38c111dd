package workload

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"optchain/internal/dataset"
	"optchain/internal/names"
)

// drain copies n transactions out of a source (deep-copying reused slices).
func drain(t *testing.T, src Source, n int) []Tx {
	t.Helper()
	out := make([]Tx, 0, n)
	var tx Tx
	for len(out) < n && src.Next(&tx) {
		cp := tx
		cp.Inputs = append([]Input(nil), tx.Inputs...)
		cp.OutVals = append([]int64(nil), tx.OutVals...)
		out = append(out, cp)
	}
	return out
}

func build(t *testing.T, name string, p Params) Source {
	t.Helper()
	src, err := New(name, p)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return src
}

func TestRegistryEnumeratesScenarios(t *testing.T) {
	all := Names()
	for _, want := range []string{"adversarial", "bitcoin", "burst", "drift", "hotspot", "mix", "replay"} {
		if !slices.Contains(all, want) {
			t.Errorf("Names() = %v, missing %q", all, want)
		}
	}
	if got := StandaloneNames(); slices.Contains(got, "replay") || len(got) != len(all)-1 {
		t.Errorf("StandaloneNames() = %v, want every scenario but replay", got)
	}
	if _, err := New("no-such-scenario", Params{}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("New(unknown) error = %v, want ErrUnknownWorkload", err)
	}
	if err := Register("Bitcoin", newBitcoin); !errors.Is(err, names.ErrBadRegistration) {
		t.Fatalf("duplicate Register error = %v, want names.ErrBadRegistration", err)
	}
}

func TestParseSpec(t *testing.T) {
	name, knobs, err := ParseSpec("hotspot:exp=1.5,wallets=5000")
	if err != nil || name != "hotspot" || knobs["exp"] != 1.5 || knobs["wallets"] != 5000 {
		t.Fatalf("ParseSpec = %q %v %v", name, knobs, err)
	}
	name, knobs, err = ParseSpec("burst")
	if err != nil || name != "burst" || knobs != nil {
		t.Fatalf("ParseSpec bare = %q %v %v", name, knobs, err)
	}
	// Plain scenarios reject structured or malformed arguments at parse
	// time — a dropped knob would silently run the experiment on defaults.
	for _, bad := range []string{"", "hotspot:=2", "hotspot:exp=", "hotspot:exp,,",
		"mix:(bitcoin=1", "hotspot:exp", "hotspot:exp=abc"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	// Composite scenarios keep their structured arguments parseable.
	if _, _, err := ParseSpec("mix:bitcoin=0.5,hotspot=0.5"); err != nil {
		t.Fatalf("ParseSpec(mix) = %v", err)
	}
	if _, _, err := ParseSpec("replay:trace.tan,mod=burst"); err != nil {
		t.Fatalf("ParseSpec(replay) = %v", err)
	}
	// Unknown scenario names fail at parse time, naming the token and
	// listing the registry — not with a bare "unknown workload".
	_, _, err = ParseSpec("hotspt:exp=1.5")
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown-name error = %v", err)
	}
	for _, want := range []string{"hotspt", "hotspot", "bitcoin", "mix", "replay"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not mention %q", err, want)
		}
	}
	// Structured arguments parse but are rejected by plain generators with
	// an error naming the offending token.
	for _, bad := range []string{"hotspot:exp", "hotspot:exp=abc"} {
		_, err := New(bad, Params{N: 10})
		if !errors.Is(err, ErrBadParam) {
			t.Errorf("New(%q) error = %v, want ErrBadParam", bad, err)
		}
	}
}

// TestParseNested: parenthesized component specs keep their own commas and
// '=' out of the outer argument structure.
func TestParseNested(t *testing.T) {
	s, err := Parse("mix:(hotspot:exp=1.5,wallets=100)=0.5,bitcoin=0.5,stagger=0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mix" || len(s.Args) != 3 {
		t.Fatalf("Parse = %+v", s)
	}
	if s.Args[0].Key != "hotspot:exp=1.5,wallets=100" || !s.Args[0].IsNum || s.Args[0].Num != 0.5 {
		t.Fatalf("nested component arg = %+v", s.Args[0])
	}
	if s.Knobs["bitcoin"] != 0.5 || s.Knobs["stagger"] != 0 {
		t.Fatalf("knob mirror = %v", s.Knobs)
	}
	if _, ok := s.Knobs["hotspot:exp=1.5,wallets=100"]; ok {
		t.Fatal("complex key leaked into the knob map")
	}
}

func TestUnknownKnobRejected(t *testing.T) {
	for _, name := range Names() {
		_, err := New(name, Params{N: 10, Knobs: map[string]float64{"nosuchknob": 1}})
		// mix interprets unknown numeric knobs as component weights, so its
		// rejection is "unknown scenario" rather than "unknown knob".
		if !errors.Is(err, ErrBadParam) && !errors.Is(err, ErrUnknownWorkload) {
			t.Errorf("%s: unknown knob error = %v, want ErrBadParam or ErrUnknownWorkload", name, err)
		}
	}
}

// TestScenarioDeterminism: identical seeds yield identical streams for every
// standalone scenario (replay needs a trace-file argument; its determinism
// is covered in replay_test.go); a different seed changes the stream.
func TestScenarioDeterminism(t *testing.T) {
	const n = 4000
	for _, name := range StandaloneNames() {
		a := drain(t, build(t, name, Params{N: n, Seed: 7, Shards: 8}), n)
		b := drain(t, build(t, name, Params{N: n, Seed: 7, Shards: 8}), n)
		if len(a) != n || len(b) != n {
			t.Fatalf("%s: drained %d/%d of %d", name, len(a), len(b), n)
		}
		for i := range a {
			if a[i].Outputs != b[i].Outputs || a[i].Value != b[i].Value ||
				a[i].Gap != b[i].Gap || len(a[i].Inputs) != len(b[i].Inputs) {
				t.Fatalf("%s: tx %d differs across equal seeds: %+v vs %+v", name, i, a[i], b[i])
			}
			for j := range a[i].Inputs {
				if a[i].Inputs[j] != b[i].Inputs[j] {
					t.Fatalf("%s: tx %d input %d differs: %v vs %v", name, i, j, a[i].Inputs[j], b[i].Inputs[j])
				}
			}
		}
		c := drain(t, build(t, name, Params{N: n, Seed: 8, Shards: 8}), n)
		same := true
		for i := range a {
			if a[i].Outputs != c[i].Outputs || len(a[i].Inputs) != len(c[i].Inputs) {
				same = false
				break
			}
			for j := range a[i].Inputs {
				if a[i].Inputs[j] != c[i].Inputs[j] {
					same = false
					break
				}
			}
			if !same {
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 produced identical streams", name)
		}
	}
}

// TestScenarioValidity: every scenario emits referentially valid,
// double-spend-free, value-conserving streams.
func TestScenarioValidity(t *testing.T) {
	const n = 10_000
	for _, name := range StandaloneNames() {
		src := build(t, name, Params{N: n, Seed: 3, Shards: 8})
		spent := make(map[Input]bool)
		outsOf := make([]int, 0, n)
		valueOf := make(map[Input]int64)
		var tx Tx
		for i := 0; src.Next(&tx); i++ {
			if tx.Outputs < 1 {
				t.Fatalf("%s: tx %d has %d outputs", name, i, tx.Outputs)
			}
			if tx.Value < 0 {
				t.Fatalf("%s: tx %d has negative value", name, i)
			}
			var inSum int64
			for _, in := range tx.Inputs {
				if in.Tx < 0 || in.Tx >= i {
					t.Fatalf("%s: tx %d spends future/self tx %d", name, i, in.Tx)
				}
				if int(in.Index) >= outsOf[in.Tx] {
					t.Fatalf("%s: tx %d spends %d:%d beyond %d outputs", name, i, in.Tx, in.Index, outsOf[in.Tx])
				}
				if spent[in] {
					t.Fatalf("%s: tx %d double-spends %d:%d", name, i, in.Tx, in.Index)
				}
				spent[in] = true
				inSum += valueOf[in]
			}
			if len(tx.Inputs) > 0 && tx.Value > inSum {
				t.Fatalf("%s: tx %d creates value (in=%d out=%d)", name, i, inSum, tx.Value)
			}
			dataset.SplitValue(tx.Outputs, tx.Value, func(idx uint32, val int64) {
				valueOf[Input{Tx: i, Index: idx}] = val
			})
			outsOf = append(outsOf, tx.Outputs)
		}
		if len(outsOf) != n {
			t.Fatalf("%s: emitted %d of %d", name, len(outsOf), n)
		}
	}
}

// TestScenarioRoundTrip: Materialize → Encode → Decode reproduces each
// scenario's dataset byte-for-byte.
func TestScenarioRoundTrip(t *testing.T) {
	const n = 3000
	for _, name := range StandaloneNames() {
		src := build(t, name, Params{N: n, Seed: 11, Shards: 8})
		d, err := Materialize(src, n)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", name, err)
		}
		if d.Len() != n {
			t.Fatalf("%s: materialized %d of %d", name, d.Len(), n)
		}
		var enc bytes.Buffer
		if err := d.Encode(&enc); err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		got, err := dataset.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		var re bytes.Buffer
		if err := got.Encode(&re); err != nil {
			t.Fatalf("%s: re-Encode: %v", name, err)
		}
		if !bytes.Equal(enc.Bytes(), re.Bytes()) {
			t.Fatalf("%s: Encode→Decode→Encode is not a fixed point", name)
		}
	}
}

// TestBitcoinMatchesGenerate: the bitcoin scenario is the calibrated
// generator — materializing it reproduces dataset.Generate exactly.
func TestBitcoinMatchesGenerate(t *testing.T) {
	const n = 5000
	src := build(t, "bitcoin", Params{N: n, Seed: 5})
	d, err := Materialize(src, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = 5
	want, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := d.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("bitcoin scenario diverges from dataset.Generate for equal seeds")
	}
}

// convertExcerpt converts SCENARIOS.md's two-transaction excerpt, whose
// second transaction splits 4900000000 as 3000000000|1900000000, not
// evenly.
func convertExcerpt(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, _, err := dataset.ConvertCSV(strings.NewReader(
		"txid,inputs,outputs\naa01,,5000000000\nbb02,aa01:0,3000000000|1900000000\n"), dataset.ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAdversarialSpansShards: with placement feedback, almost every
// non-coinbase transaction spends outputs from >= 2 distinct shards, so it
// is cross-shard under ANY single-shard placement.
func TestAdversarialSpansShards(t *testing.T) {
	const n, k = 5000, 8
	src := build(t, "adversarial", Params{N: n, Seed: 2, Shards: k})
	obs, ok := src.(Observer)
	if !ok {
		t.Fatal("adversarial does not implement Observer")
	}
	shardOf := make([]int, 0, n)
	var tx Tx
	spanning, spends := 0, 0
	for i := 0; src.Next(&tx); i++ {
		// A simple load-balancing driver: place in the least-loaded shard
		// of the inputs, or round-robin for coinbases.
		s := i % k
		if len(tx.Inputs) > 0 {
			s = shardOf[tx.Inputs[0].Tx]
		}
		shardOf = append(shardOf, s)
		obs.Observe(i, s)
		if len(tx.Inputs) > 0 {
			spends++
			distinct := map[int]bool{}
			for _, in := range tx.Inputs {
				distinct[shardOf[in.Tx]] = true
			}
			if len(distinct) >= 2 {
				spanning++
			}
		}
	}
	if spends == 0 {
		t.Fatal("adversarial emitted no spending transactions")
	}
	if frac := float64(spanning) / float64(spends); frac < 0.9 {
		t.Fatalf("only %.2f of adversarial spends span >= 2 shards", frac)
	}
}

// TestBurstModulatesGaps: burst emits both boosted (flash-crowd) and
// nominal inter-arrival gaps.
func TestBurstModulatesGaps(t *testing.T) {
	txs := drain(t, build(t, "burst", Params{N: 20_000, Seed: 4}), 20_000)
	fast, slow := 0, 0
	for _, tx := range txs {
		switch {
		case tx.Gap == 1:
			slow++
		case tx.Gap < 1 && tx.Gap > 0:
			fast++
		default:
			t.Fatalf("burst emitted gap %v", tx.Gap)
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("burst phases missing: %d fast, %d slow", fast, slow)
	}
}

// TestMaterializeCaps: Materialize honors its transaction cap.
func TestMaterializeCaps(t *testing.T) {
	src := build(t, "hotspot", Params{N: 1000, Seed: 1})
	d, err := Materialize(src, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
}

// TestCheckKnobsDeterministicError: rejecting a Params with several unknown
// knobs must produce the same error text on every call — the old code named
// whichever unknown key map iteration happened to visit first, leaking map
// order into error messages (which reach reports and golden files).
func TestCheckKnobsDeterministicError(t *testing.T) {
	knobs := map[string]float64{"zeta": 1, "alpha": 2, "mid": 3}
	var want string
	for i := 0; i < 50; i++ {
		err := checkKnobs("hotspot", knobs, "exp")
		if err == nil {
			t.Fatal("unknown knobs were accepted")
		}
		if i == 0 {
			want = err.Error()
			continue
		}
		if got := err.Error(); got != want {
			t.Fatalf("error text varies across calls:\n%q\n%q", want, got)
		}
	}
	if !strings.Contains(want, `"alpha"`) {
		t.Fatalf("error %q should name the alphabetically first unknown knob", want)
	}
}

// TestShardAware: a spec is shard-aware exactly when a stream it names
// changes with Params.Shards, which a drain at two shard counts shows (long
// enough for an unobserved adversarial component to pass its 1024-transaction
// observation lag and fall back to hash placement over the shards).
func TestShardAware(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want bool
	}{
		{"bitcoin", false}, {"hotspot:exp=1.5", false}, {"burst", false}, {"drift", false},
		{"adversarial", true}, {"mix", true}, {"mix:bitcoin=0.7,hotspot=0.3", false},
		{"mix:bitcoin=0.7,adversarial=0.3", true}, {"mix:bitcoin=0.7,adversarial=0", false},
		{"mix:bitcoin=0.5,(mix:hotspot=0.5,adversarial=0.5)=0.5", true},
		{"no-such-scenario", true},
	} {
		if got := ShardAware(tc.spec); got != tc.want {
			t.Errorf("ShardAware(%q) = %v, want %v", tc.spec, got, tc.want)
		}
		if tc.spec == "no-such-scenario" {
			continue
		}
		at := func(k int) []int {
			src, err := New(tc.spec, Params{N: 20_000, Seed: 1, Shards: k})
			if err != nil {
				t.Fatal(err)
			}
			defer Close(src)
			var refs []int
			var tx Tx
			for src.Next(&tx) {
				for _, in := range tx.Inputs {
					refs = append(refs, in.Tx)
				}
			}
			return refs
		}
		if differs := !slices.Equal(at(4), at(16)); differs != tc.want {
			t.Errorf("%s: the streams at 4 and 16 shards differ: %v, but ShardAware says %v", tc.spec, differs, tc.want)
		}
	}
}
