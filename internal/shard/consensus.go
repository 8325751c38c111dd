package shard

import (
	"math/bits"
	"slices"
	"time"

	"optchain/internal/des"
)

// chunkBytes is the dissemination chunk size: blocks travel down the tree
// as a pipeline of chunks, so a relay forwards data while still receiving
// it (the standard block-dissemination trick OmniLedger inherits from
// tree/gossip broadcast). Without pipelining, a 1 MB block over a depth-9
// binary tree would pay nine full serializations (~8 s at 20 Mbps); with
// it, the depth penalty is per-chunk, and total time approaches one upload
// of the block per tree level's bottleneck plus path latency.
const chunkBytes = 32 * 1024

// The committee round. One block's intra-shard consensus is three message
// waves over the committee:
//
//  1. Dissemination: the leader pushes the block through a binary tree over
//     the validators (validator i's children are 2i+1 and 2i+2) using
//     chunk-pipelined forwarding. Delivery times follow the pipeline model
//     analytically (per-link busy tracking would double-count: the pipeline
//     overlaps transfers along the path):
//
//     t(child of root) = start + 2·T(block) + L(leader, child)
//     t(child)         = t(parent) + 2·T(chunk) + L(parent, child)
//
//     where T is serialization time and L link latency; the factor 2 is the
//     relay's upload of every chunk to both children.
//  2. Vote round: each validator verifies (VerifyBase + VerifyPerTx·txs)
//     and sends a small vote to the leader over its own link. The leader
//     is prepared at the 2/3-quorum-th vote.
//  3. Certificate round: the leader floods a small commit certificate to
//     every validator, serialized on its link (one serialization of
//     v·CertBytes plus one latency, far below a tree walk); the block is
//     final when a 2/3 quorum holds it.
//
// Played message by message that is 4v events per block (arrive, verify,
// vote, certificate per validator) for one number, the finality time,
// which is a function of per-committee constants, the block size and the
// state of the links. So the round is evaluated in closed form:
//
//	arrive(i) = start + 2·T(block) + depth(i)·2·T(min(block, chunk)) + path(i)
//	vote(i)   = the validator's link taken at arrive(i) + verify, + L(i, leader)
//	prepared  = the quorum-th smallest vote(i)
//	final     = the leader's link taken at prepared for v certificates,
//	            + the quorum-th smallest of (i+1)·T(cert) + L(leader, i)
//
// with depth, path (the summed latency leader → … → i), both latencies and
// the certificate order statistic computed once per committee. Only the
// quorum voter's own chain is played on the event kernel (its block
// arrival, its verification, its vote reaching the leader, the deciding
// certificate: 4 events per block). Those are the events of the
// per-message schedule that had an effect, scheduled from the same
// callbacks at the same times, so their (time, sequence) order against
// every other event of the simulation is the per-message schedule's order:
// ties break the same way by construction. The leader's link is read at the
// prepared instant, not before, because the protocols send from it
// mid-round. Among equal vote times the per-message schedule counted first
// the vote of the validator the block reached first, which is how the quorum
// voter is selected here (votes equal in both are interchangeable: their
// chains fire at the same instants).
//
// A validator's link carries nothing but its votes, so taking it at block
// start for a vote that leaves later is unobservable, provided a
// validator's votes for consecutive blocks leave in block order. They do
// whenever a relay hop costs at most three link latencies,
// 2·T(chunk) <= 3·Lmin (Lmin is half the base latency: 26 ms against 150 ms
// on the default network, the only one the simulator builds;
// TestRoundDomain pins it). With hop = 2·T(min(block, chunk)) and D the
// tree depth, fewer than a quorum of validators are shallower than depth
// D-1, so the quorum-th vote reaches the leader no earlier than
// start + 2·T(block) + (D-1)·(hop + Lmin) + Lmin + verify + T(vote) + Lmin,
// finality is at least T(cert) + Lmin after that, and the next block
// starts no earlier. Validator i's vote leaves at
// start + 2·T(block) + depth(i)·hop + path(i) + verify with depth(i) <= D,
// and its next vote at least path(i) after the next start: at least
// 3·Lmin - hop + T(vote) + T(cert) later, when the earlier vote has left
// and the link is idle again. consensus_oracle_test.go holds the
// per-message round and asserts equal finality times, link states, traffic
// counters and firing order against outside events over committees of 0 to
// 400 validators.

// member holds one validator's per-committee constants.
type member struct {
	depth   time.Duration // tree depth, as a multiplier of the per-hop relay time
	path    time.Duration // summed link latency leader → … → this validator
	voteLat time.Duration // L(validator, leader)
}

// vote is one validator's vote in the current round.
type vote struct {
	at     time.Duration // reaches the leader
	arrive time.Duration // the block reached the validator
}

func (a vote) before(b vote) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.arrive < b.arrive
}

// round is the committee's constants plus the state of the one round in
// flight. The four event callbacks are bound once, so a round allocates
// nothing.
type round struct {
	members    []member
	votes      []vote        // scratch, one per validator
	quorum     int           // ceil(2v/3)
	certSpan   time.Duration // v·T(cert): how long the certificate flood holds the leader's link
	certQuorum time.Duration // quorum-th smallest (i+1)·T(cert) + L(leader, i)

	batch  []Item
	start  time.Duration
	verify time.Duration
	voteAt time.Duration // the quorum vote reaches the leader

	onArrive, onVerified, onPrepared, onFinal func(*des.Simulator)
}

// initRound computes the per-committee constants.
func (s *Shard) initRound() {
	r := &s.round
	r.onArrive = func(sim *des.Simulator) { sim.Schedule(r.verify, "shard.verify", r.onVerified) }
	r.onVerified = func(sim *des.Simulator) { sim.ScheduleAt(r.voteAt, "shard.vote", r.onPrepared) }
	r.onPrepared = s.startCertRound
	r.onFinal = func(*des.Simulator) { s.finalizeBlock() }

	v := len(s.Validators)
	r.quorum = (2*v + 2) / 3
	r.members = make([]member, v)
	r.votes = make([]vote, v)
	if v == 0 {
		return
	}
	for i := range r.members {
		from, path := s.Leader, time.Duration(0)
		if i > 0 {
			parent := (i - 1) / 2
			from, path = s.Validators[parent], r.members[parent].path
		}
		r.members[i] = member{
			depth:   time.Duration(bits.Len(uint(i+1)) - 1),
			path:    path + s.net.Latency(from, s.Validators[i]),
			voteLat: s.net.Latency(s.Validators[i], s.Leader),
		}
	}

	cert := s.net.TransferTime(s.cfg.CertBytes)
	r.certSpan = time.Duration(v) * cert
	arrivals := make([]time.Duration, v)
	for i := range arrivals {
		arrivals[i] = time.Duration(i+1)*cert + s.net.Latency(s.Leader, s.Validators[i])
	}
	slices.Sort(arrivals)
	r.certQuorum = arrivals[r.quorum-1]
}

// startRound begins consensus on the batch cut at the current instant;
// finalizeBlock runs at finality. With no validators (degenerate test
// configs) the block is final after the leader's own verification.
//
//optchain:hotpath once per block, linear in the committee; no allocation.
func (s *Shard) startRound(batch []Item, blockBytes int) {
	r := &s.round
	r.batch = batch
	r.start = s.sim.Now()
	r.verify = s.cfg.VerifyBase + time.Duration(len(batch))*s.cfg.VerifyPerTx
	v := len(s.Validators)
	if v == 0 {
		s.sim.Schedule(r.verify, "shard.soloFinal", r.onFinal)
		return
	}
	rootUpload := 2 * s.net.TransferTime(blockBytes)
	hopRelay := 2 * s.net.TransferTime(min(blockBytes, chunkBytes))
	s.net.CountTraffic(blockBytes, v)
	base := r.start + rootUpload
	for i, m := range r.members {
		arrive := base + m.depth*hopRelay + m.path
		sent := s.net.Occupy(s.Validators[i], arrive+r.verify, s.cfg.VoteBytes, 1)
		r.votes[i] = vote{at: sent + m.voteLat, arrive: arrive}
	}
	q := selectVote(r.votes, r.quorum-1)
	r.voteAt = q.at
	s.sim.ScheduleAt(q.arrive, "shard.block", r.onArrive)
}

// startCertRound runs when the quorum vote reaches the leader.
//
//optchain:hotpath
func (s *Shard) startCertRound(sim *des.Simulator) {
	r := &s.round
	flooded := s.net.Occupy(s.Leader, sim.Now(), s.cfg.CertBytes, len(s.Validators))
	sim.ScheduleAt(flooded-r.certSpan+r.certQuorum, "shard.cert", r.onFinal)
}

// selectVote returns the k-th vote (0-based) in before order, reordering
// votes as it goes (quickselect).
//
//optchain:hotpath
func selectVote(votes []vote, k int) vote {
	lo, hi := 0, len(votes)-1
	for lo < hi {
		pivot := votes[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for votes[i].before(pivot) {
				i++
			}
			for pivot.before(votes[j]) {
				j--
			}
			if i <= j {
				votes[i], votes[j] = votes[j], votes[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return votes[k]
		}
	}
	return votes[k]
}
