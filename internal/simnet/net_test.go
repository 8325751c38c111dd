package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"optchain/internal/des"
)

func TestLatencySymmetricAndBounded(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	ids := net.AddRandomNodes(50, rng)
	for i := 0; i < 20; i++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		lab, lba := net.Latency(a, b), net.Latency(b, a)
		if lab != lba {
			t.Fatalf("latency asymmetric: %v vs %v", lab, lba)
		}
		min := time.Duration(float64(DefaultConfig().BaseLatency) * 0.5)
		max := time.Duration(float64(DefaultConfig().BaseLatency) * 1.21)
		if lab < min || lab > max {
			t.Fatalf("latency %v outside [%v, %v]", lab, min, max)
		}
	}
}

func TestLatencyMeanNearBase(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	ids := net.AddRandomNodes(200, rng)
	var total time.Duration
	count := 0
	for i := 0; i < 100; i++ {
		total += net.Latency(ids[rng.Intn(200)], ids[rng.Intn(200)])
		count++
	}
	mean := total / time.Duration(count)
	// 100ms × (0.5 + E[dist]≈0.38) ≈ 88ms; accept a broad band.
	if mean < 70*time.Millisecond || mean > 110*time.Millisecond {
		t.Fatalf("mean latency %v not near the paper's 100 ms scale", mean)
	}
}

func TestTorusWrapsDistance(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	a := net.AddNode(0.05, 0.5)
	b := net.AddNode(0.95, 0.5) // 0.1 apart across the seam
	c := net.AddNode(0.55, 0.5) // 0.5 apart
	if net.Latency(a, b) >= net.Latency(a, c) {
		t.Fatalf("torus seam not wrapped: %v vs %v", net.Latency(a, b), net.Latency(a, c))
	}
}

func TestTransferTime(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	// 1 MB at 2.5 MB/s = 0.4 s.
	got := net.TransferTime(1 << 20)
	want := time.Duration(float64(1<<20) / 2.5e6 * float64(time.Second))
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	if net.TransferTime(0) != 0 || net.TransferTime(-5) != 0 {
		t.Fatal("non-positive sizes must be free")
	}
}

func TestSendDeliversAfterTransferAndLatency(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	a := net.AddNode(0.1, 0.1)
	b := net.AddNode(0.1, 0.1) // same spot: latency = 0.5×base
	var arrived time.Duration
	net.Send(a, b, 1<<20, "block", func(s *des.Simulator) { arrived = s.Now() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := net.TransferTime(1<<20) + 50*time.Millisecond
	if arrived != want {
		t.Fatalf("arrival = %v, want %v", arrived, want)
	}
}

func TestSendSerializesOutbound(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	a := net.AddNode(0.2, 0.2)
	b := net.AddNode(0.2, 0.2)
	c := net.AddNode(0.2, 0.2)
	var t1, t2 time.Duration
	net.Send(a, b, 1<<20, "m1", func(s *des.Simulator) { t1 = s.Now() })
	net.Send(a, c, 1<<20, "m2", func(s *des.Simulator) { t2 = s.Now() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Second transfer must wait for the first (same sender), so it arrives
	// one full transfer later.
	if t2-t1 != net.TransferTime(1<<20) {
		t.Fatalf("gap = %v, want %v", t2-t1, net.TransferTime(1<<20))
	}
}

func TestSendPanicsOnUnknownNodes(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	a := net.AddNode(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Send(a, NodeID(99), 10, "bad", nil)
}

func TestCounters(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	ids := net.AddRandomNodes(10, rng)
	net.Send(ids[0], ids[1], 100, "m", nil)
	net.Send(ids[0], ids[2], 200, "m", nil)
	if net.Sent != 2 || net.Bytes != 300 {
		t.Fatalf("counters = %d msgs / %d bytes", net.Sent, net.Bytes)
	}
	net.CountTraffic(50, 3)
	if net.Sent != 5 || net.Bytes != 450 {
		t.Fatalf("counters after CountTraffic = %d msgs / %d bytes", net.Sent, net.Bytes)
	}
}

// Occupy is Send's link accounting: transfers queue behind each other from
// the later of the given instant and the link's release, and a later Send
// queues behind them.
func TestOccupyQueuesLikeSend(t *testing.T) {
	sim := des.New()
	net := New(sim, DefaultConfig())
	a, b := net.AddNode(0.1, 0.1), net.AddNode(0.2, 0.2)
	one := net.TransferTime(1000)
	if got := net.Occupy(a, time.Second, 1000, 3); got != time.Second+3*one {
		t.Fatalf("three transfers from 1s end at %v, want %v", got, time.Second+3*one)
	}
	if got := net.Occupy(a, 0, 1000, 1); got != time.Second+4*one || net.BusyUntil(a) != got {
		t.Fatalf("queued transfer ends at %v (link busy until %v), want %v", got, net.BusyUntil(a), time.Second+4*one)
	}
	if net.Sent != 4 || net.Bytes != 4000 {
		t.Fatalf("counters = %d msgs / %d bytes", net.Sent, net.Bytes)
	}
	var at time.Duration
	net.Send(a, b, 1000, "m", func(s *des.Simulator) { at = s.Now() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := time.Second + 5*one + net.Latency(a, b); at != want {
		t.Fatalf("send behind occupied link arrived at %v, want %v", at, want)
	}
}

// Property: messages between the same pair sent back-to-back arrive in
// order (FIFO per link) for any sizes.
func TestPropertyFIFOPerLink(t *testing.T) {
	f := func(seed int64, sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 40 {
			return true
		}
		sim := des.New()
		net := New(sim, DefaultConfig())
		rng := rand.New(rand.NewSource(seed))
		a := net.AddNode(rng.Float64(), rng.Float64())
		b := net.AddNode(rng.Float64(), rng.Float64())
		var order []int
		for i, sz := range sizesRaw {
			i := i
			net.Send(a, b, int(sz)+1, "m", func(*des.Simulator) { order = append(order, i) })
		}
		if err := sim.Run(); err != nil {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				return false
			}
		}
		return len(order) == len(sizesRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
