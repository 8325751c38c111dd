package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"optchain/internal/des"
	"optchain/internal/simnet"
)

// oracle is the committee round played message by message: the
// implementation this package ran before the closed form in consensus.go,
// kept as the reference the closed form is tested against. It costs 4v
// kernel events and 4v closures per block.
type oracle struct {
	sim        *des.Simulator
	net        *simnet.Network
	leader     simnet.NodeID
	validators []simnet.NodeID
	cfg        Config
}

// round models one block's intra-shard consensus, calling prepared when the
// leader holds a quorum of votes and done at finality.
func (o *oracle) round(txs, blockBytes int, prepared, done func(*des.Simulator)) {
	verify := o.cfg.VerifyBase + time.Duration(txs)*o.cfg.VerifyPerTx
	v := len(o.validators)
	if v == 0 {
		o.sim.Schedule(verify, "shard.soloFinal", done)
		return
	}
	quorum := (2*v + 2) / 3 // ceil(2v/3)

	votes := 0
	isPrepared := false
	certs := 0
	finalized := false

	startCertRound := func(sim *des.Simulator) {
		prepared(sim)
		for i := range o.validators {
			o.net.Send(o.leader, o.validators[i], o.cfg.CertBytes, "shard.cert", func(sim *des.Simulator) {
				certs++
				if !finalized && certs >= quorum {
					finalized = true
					done(sim)
				}
			})
		}
	}

	o.broadcastTree(blockBytes, "shard.block", func(sim *des.Simulator, idx int) {
		// Validator verifies, then votes.
		sim.Schedule(verify, "shard.verify", func(sim *des.Simulator) {
			o.net.Send(o.validators[idx], o.leader, o.cfg.VoteBytes, "shard.vote", func(sim *des.Simulator) {
				votes++
				if !isPrepared && votes >= quorum {
					isPrepared = true
					startCertRound(sim)
				}
			})
		})
	})
}

// broadcastTree schedules chunk-pipelined delivery of size bytes from the
// leader to every validator over a binary tree, invoking onArrive at each
// validator's completion time:
//
//	t(child of root) = now + 2·T(size) + L(leader, child)
//	t(child)         = t(parent)   + 2·T(chunk) + L(parent, child)
func (o *oracle) broadcastTree(size int, name string, onArrive func(sim *des.Simulator, idx int)) {
	v := len(o.validators)
	rootUpload := 2 * o.net.TransferTime(size)
	hopRelay := 2 * o.net.TransferTime(min(size, chunkBytes))

	var schedule func(parentIdx, idx int, parentAt time.Duration)
	schedule = func(parentIdx, idx int, parentAt time.Duration) {
		from := o.leader
		var extra time.Duration
		if parentIdx < 0 {
			extra = rootUpload
		} else {
			from = o.validators[parentIdx]
			extra = hopRelay
		}
		at := parentAt + extra + o.net.Latency(from, o.validators[idx])
		o.net.CountTraffic(size, 1)
		o.sim.ScheduleAt(at, name, func(sim *des.Simulator) { onArrive(sim, idx) })
		if left := 2*idx + 1; left < v {
			schedule(idx, left, at)
		}
		if right := 2*idx + 2; right < v {
			schedule(idx, right, at)
		}
	}
	schedule(-1, 0, o.sim.Now())
}

// roundBlock is one block of a scenario: its size, and how long after the
// previous block's finality it starts (0: inside the finality callback, the
// way a saturated shard cuts blocks back to back).
type roundBlock struct {
	txs, bytes int
	gap        time.Duration
}

// leaderSend occupies the leader's link from outside the round, the way the
// protocols' acks, proofs and yank requests do.
type leaderSend struct {
	at    time.Duration
	bytes int
}

// probe is an outside event: armed at one instant, it fires at another, so
// its kernel sequence number falls between those of the round's events.
type probe struct{ armedAt, at time.Duration }

type roundScenario struct {
	validators int
	seed       int64
	coLocated  bool // every validator at one point: equal latencies, so votes tie
	blocks     []roundBlock
	sends      []leaderSend
	probes     []probe
}

// roundTrace is everything a scenario leaves behind.
type roundTrace struct {
	prepared, final []time.Duration
	order           []string // finalities and probes in firing order
	busy            []time.Duration
	sent, bytes     int64
	executed        uint64
}

// play runs the scenario on a fresh kernel and network, through the oracle
// or through a Shard's closed-form round.
func (sc roundScenario) play(t *testing.T, useOracle bool) roundTrace {
	t.Helper()
	sim := des.New()
	net := simnet.New(sim)
	rng := rand.New(rand.NewSource(sc.seed))
	leader := net.AddNode(rng.Float64(), rng.Float64())
	validators := net.AddRandomNodes(sc.validators, rng)
	if sc.coLocated {
		x, y := rng.Float64(), rng.Float64()
		validators = validators[:0]
		for i := 0; i < sc.validators; i++ {
			validators = append(validators, net.AddNode(x, y))
		}
	}
	peer := net.AddNode(rng.Float64(), rng.Float64())
	s := New(0, sim, net, leader, validators, Config{})
	o := &oracle{sim: sim, net: net, leader: leader, validators: validators, cfg: s.cfg}

	var tr roundTrace
	var start func(k int)
	final := func(k int) func(*des.Simulator) {
		return func(sim *des.Simulator) {
			tr.final = append(tr.final, sim.Now())
			tr.order = append(tr.order, fmt.Sprintf("final %d", k))
			if k+1 == len(sc.blocks) {
				return
			}
			if gap := sc.blocks[k+1].gap; gap > 0 {
				sim.Schedule(gap, "test.nextBlock", func(*des.Simulator) { start(k + 1) })
			} else {
				start(k + 1)
			}
		}
	}
	start = func(k int) {
		b := sc.blocks[k]
		if useOracle {
			o.round(b.txs, b.bytes, func(sim *des.Simulator) { tr.prepared = append(tr.prepared, sim.Now()) }, final(k))
			return
		}
		batch := make([]Item, b.txs)
		done := final(k)
		batch[b.txs-1].Work = work{done: func(sim *des.Simulator, _ error) { done(sim) }}
		s.startRound(batch, b.bytes)
	}
	for _, ls := range sc.sends {
		sim.ScheduleAt(ls.at, "test.leaderSend", func(*des.Simulator) {
			net.Send(leader, peer, ls.bytes, "test.noise", nil)
		})
	}
	for i, p := range sc.probes {
		sim.ScheduleAt(p.armedAt, "test.arm", func(sim *des.Simulator) {
			sim.ScheduleAt(p.at, "test.probe", func(*des.Simulator) {
				tr.order = append(tr.order, fmt.Sprintf("probe %d", i))
			})
		})
	}
	sim.ScheduleAt(0, "test.firstBlock", func(*des.Simulator) { start(0) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	tr.busy = append(tr.busy, net.BusyUntil(leader))
	for _, v := range validators {
		tr.busy = append(tr.busy, net.BusyUntil(v))
	}
	tr.sent, tr.bytes, tr.executed = net.Sent, net.Bytes, sim.Executed()
	return tr
}

// check plays the scenario both ways and asserts what the closed form
// promises: equal finality times, equal link state for the leader and every
// validator afterwards, equal traffic counters, the same firing order
// against outside events, and 4 kernel events per block where the oracle
// spends 4v.
func (sc roundScenario) check(t *testing.T) roundTrace {
	t.Helper()
	want, got := sc.play(t, true), sc.play(t, false)
	if !slices.Equal(got.final, want.final) {
		t.Fatalf("finality times %v, oracle %v", got.final, want.final)
	}
	if len(got.final) != len(sc.blocks) {
		t.Fatalf("%d of %d blocks final", len(got.final), len(sc.blocks))
	}
	if !slices.Equal(got.order, want.order) {
		t.Fatalf("firing order %v, oracle %v", got.order, want.order)
	}
	for i := range want.busy {
		if got.busy[i] != want.busy[i] {
			t.Fatalf("node %d (0 is the leader) busy until %v, oracle %v", i, got.busy[i], want.busy[i])
		}
	}
	if got.sent != want.sent || got.bytes != want.bytes {
		t.Fatalf("traffic %d msgs / %d bytes, oracle %d / %d", got.sent, got.bytes, want.sent, want.bytes)
	}
	if v := uint64(sc.validators); v > 0 {
		if saved := (4*v - 4) * uint64(len(sc.blocks)); got.executed != want.executed-saved {
			t.Fatalf("%d events, oracle %d: want %d fewer", got.executed, want.executed, saved)
		}
	} else if got.executed != want.executed {
		t.Fatalf("%d events, oracle %d", got.executed, want.executed)
	}
	return want
}

var oracleCommittees = []int{0, 1, 2, 3, 4, 7, 100, 400}

// TestRoundMatchesOracle drives the closed form and the per-message round
// over the same committees and block sequences.
func TestRoundMatchesOracle(t *testing.T) {
	// Block sizes on both sides of chunkBytes, back to back and spaced, a
	// large block followed by a tiny one (the sequence that brings
	// consecutive votes of one validator closest together).
	blocks := []roundBlock{
		{txs: 1, bytes: 600},
		{txs: 60, bytes: chunkBytes - 1},
		{txs: 61, bytes: chunkBytes},
		{txs: 62, bytes: chunkBytes + 1, gap: 300 * time.Millisecond},
		{txs: 2000, bytes: 1 << 20},
		{txs: 1, bytes: 600},
		{txs: 1, bytes: 513},
		{txs: 900, bytes: 400_000, gap: time.Nanosecond},
		{txs: 2000, bytes: 1 << 20},
	}
	for _, v := range oracleCommittees {
		for _, coLocated := range []bool{false, true} {
			t.Run(fmt.Sprintf("v%d/coLocated=%v", v, coLocated), func(t *testing.T) {
				sc := roundScenario{validators: v, seed: int64(v) + 1, coLocated: coLocated, blocks: blocks}
				if v == 0 {
					sc.check(t)
					return
				}
				// The RapidChain case, on blocks 0, 2 and 4: the leader's link
				// is still busy at the prepared instant and gets busier
				// mid-round (a second send lands between the first and the
				// prepared instant), so finality waits for it. Outside events
				// armed before, at and after the prepared instant fire at the
				// prepared and finality instants.
				for _, k := range []int{0, 2, 4} {
					p := sc.check(t).prepared[k]
					sc.sends = append(sc.sends,
						leaderSend{at: p - 40*time.Millisecond, bytes: 150_000},
						leaderSend{at: p - time.Millisecond, bytes: 50_000})
					f := sc.check(t).final[k]
					sc.sends = append(sc.sends, leaderSend{at: f, bytes: 2_000})
					sc.probes = append(sc.probes,
						probe{armedAt: 0, at: f}, probe{armedAt: p - time.Nanosecond, at: f},
						probe{armedAt: p, at: f}, probe{armedAt: p + time.Nanosecond, at: f},
						probe{armedAt: 0, at: p}, probe{armedAt: p, at: p})
				}
				sc.check(t)
			})
		}
	}
}

// TestRoundMatchesOracleRandom does the same over seeded-random committees,
// block sequences, leader traffic and outside events.
func TestRoundMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sizes := []int{513, 600, 5_000, chunkBytes - 1, chunkBytes, chunkBytes + 1, 100_000, 1 << 20}
	for i := 0; i < 60; i++ {
		sc := roundScenario{
			validators: oracleCommittees[rng.Intn(len(oracleCommittees))],
			seed:       rng.Int63(),
			coLocated:  rng.Intn(4) == 0,
		}
		for n := 1 + rng.Intn(8); n > 0; n-- {
			b := roundBlock{txs: 1 + rng.Intn(2000), bytes: sizes[rng.Intn(len(sizes))]}
			if rng.Intn(3) == 0 {
				b.gap = time.Duration(rng.Int63n(int64(2 * time.Second)))
			}
			sc.blocks = append(sc.blocks, b)
		}
		quiet := sc.check(t)
		if sc.validators == 0 {
			continue
		}
		// Outside events at the instants of the quiet run, then leader
		// traffic (which moves the later instants).
		instants := append(slices.Clone(quiet.prepared), quiet.final...)
		for n := rng.Intn(12); n > 0; n-- {
			at := instants[rng.Intn(len(instants))]
			sc.probes = append(sc.probes, probe{armedAt: time.Duration(rng.Int63n(int64(at) + 1)), at: at})
		}
		sc.check(t)
		horizon := int64(quiet.final[len(quiet.final)-1])
		for n := rng.Intn(12); n > 0; n-- {
			sc.sends = append(sc.sends, leaderSend{at: time.Duration(rng.Int63n(horizon)), bytes: 1 + rng.Intn(300_000)})
		}
		sc.check(t)
	}
}

// TestRoundDomain pins the inequality the closed form's exactness rests on
// (see consensus.go): a relay hop costs less than three link latencies, so
// a validator's votes for consecutive blocks never reorder on its link.
func TestRoundDomain(t *testing.T) {
	net := simnet.New(des.New())
	a := net.AddNode(0.3, 0.3)
	if hop, lmin := 2*net.TransferTime(chunkBytes), net.Latency(a, a); hop > 3*lmin {
		t.Fatalf("2·T(chunk) = %v exceeds 3·Lmin = %v on the default network", hop, 3*lmin)
	}
}

// TestSelectVote checks the selection against a sort, ties included.
func TestSelectVote(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 40; n++ {
		votes := make([]vote, n)
		for i := range votes {
			votes[i] = vote{at: time.Duration(rng.Intn(4)), arrive: time.Duration(rng.Intn(3))}
		}
		sorted := slices.Clone(votes)
		slices.SortFunc(sorted, func(a, b vote) int {
			switch {
			case a.before(b):
				return -1
			case b.before(a):
				return 1
			}
			return 0
		})
		for k := range votes {
			if got := selectVote(slices.Clone(votes), k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: %+v, want %+v", n, k, got, sorted[k])
			}
		}
	}
}
