package sim

import (
	"math"
	"testing"
	"time"
)

// TestLiveTelemetryTracksQueues verifies the client-side λv estimate falls
// as a shard's queue deepens — the signal that makes OptChain's L2S term
// self-balancing in the closed loop.
func TestLiveTelemetryTracksQueues(t *testing.T) {
	cfg := fastConfig(t, 2000, "OptChain", 2, 300)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(cfg)
	if _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	// Post-run, queues are drained: rates should be finite and positive.
	tel := r.tel
	tel.client = 0
	for s := 0; s < cfg.Shards; s++ {
		if v := tel.VerifyRate(s); v <= 0 {
			t.Fatalf("verify rate shard %d = %v", s, v)
		}
		if c := tel.CommRate(s); c <= 0 || c > 1e7 {
			t.Fatalf("comm rate shard %d = %v", s, c)
		}
	}
}

func TestResultSteadyTPSBounded(t *testing.T) {
	res, err := Run(fastConfig(t, 3000, "OptChain", 4, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Steady-state throughput cannot exceed the offered rate by more than
	// measurement-window jitter.
	if res.SteadyTPS > res.Rate*1.3 {
		t.Fatalf("steady %v far above offered %v", res.SteadyTPS, res.Rate)
	}
	// The issue window runs from the first issue to the last: Total-1
	// nominal slots on an unmodulated stream.
	if want := float64(res.Total-1) / res.Rate; math.Abs(res.IssueSeconds-want) > 1e-9 {
		t.Fatalf("issue seconds %v, want %v", res.IssueSeconds, want)
	}
}

func TestValidateUTXOModeCommits(t *testing.T) {
	// Strict mode at a gentle rate: defer/retry machinery must still
	// deliver every transaction.
	cfg := fastConfig(t, 800, "OptChain", 2, 100)
	cfg.ValidateUTXO = true
	cfg.MaxSimTime = 10 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.Total {
		t.Fatalf("strict mode committed %d of %d (retries=%d aborts=%d)",
			res.Committed, res.Total, res.Retries, res.Aborts)
	}
}

func TestCrossFractionConsistentWithProtocolCounters(t *testing.T) {
	res, err := Run(fastConfig(t, 2000, "OmniLedger", 4, 400))
	if err != nil {
		t.Fatal(err)
	}
	// The placement-level cross counter and the protocol's counter measure
	// the same predicate.
	protoFrac := float64(res.CrossShard) / float64(res.SameShard+res.CrossShard)
	if diff := res.CrossFraction - protoFrac; diff > 0.01 || diff < -0.01 {
		t.Fatalf("placement cross %.4f vs protocol cross %.4f", res.CrossFraction, protoFrac)
	}
}

func TestOptChainQueueBalanceBeatsNoL2SUnderSkewedLoad(t *testing.T) {
	// T2S-only concentrates lineage-heavy load; full OptChain must keep the
	// peak queue in the same ballpark or better at high rate.
	const n = 4000
	t2s, err := Run(fastConfig(t, n, "T2S", 4, 1500))
	if err != nil {
		t.Fatal(err)
	}
	oc, err := Run(fastConfig(t, n, "OptChain", 4, 1500))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peakQ: T2S=%d OptChain=%d", t2s.Queues.PeakMax(), oc.Queues.PeakMax())
	if oc.Queues.PeakMax() > t2s.Queues.PeakMax()*3 {
		t.Fatalf("OptChain peak queue %d far above T2S-only %d", oc.Queues.PeakMax(), t2s.Queues.PeakMax())
	}
}
