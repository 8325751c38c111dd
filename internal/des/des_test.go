package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestRunExecutesInTimestampOrder(t *testing.T) {
	sim := New()
	var got []time.Duration
	delays := []time.Duration{5, 1, 3, 2, 4, 0}
	for _, d := range delays {
		d := d
		sim.Schedule(d*time.Second, "e", func(s *Simulator) {
			got = append(got, s.Now())
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != len(delays) {
		t.Fatalf("executed %d events, want %d", len(got), len(delays))
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	sim := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(time.Second, "tie", func(*Simulator) { got = append(got, i) })
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v, want FIFO", got)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	sim := New()
	var fired []string
	sim.Schedule(time.Second, "a", func(s *Simulator) {
		fired = append(fired, "a")
		s.Schedule(2*time.Second, "b", func(s *Simulator) {
			fired = append(fired, "b")
			if s.Now() != 3*time.Second {
				t.Errorf("b fired at %v, want 3s", s.Now())
			}
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancel(t *testing.T) {
	sim := New()
	ran := false
	h := sim.Schedule(time.Second, "dead", func(*Simulator) { ran = true })
	h.Cancel()
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if sim.Executed() != 0 {
		t.Fatalf("Executed = %d, want 0", sim.Executed())
	}
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	sim := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		sim.Schedule(d*time.Second, "e", func(s *Simulator) { fired = append(fired, s.Now()) })
	}
	if err := sim.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if n := len(sim.heap); n != 2 {
		t.Fatalf("%d events queued, want 2", n)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	sim := New()
	count := 0
	for i := 0; i < 5; i++ {
		sim.Schedule(time.Duration(i)*time.Second, "e", func(s *Simulator) {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2 after Stop", count)
	}
}

func TestEventBudget(t *testing.T) {
	sim := New()
	sim.MaxEvents = 10
	var loop func(*Simulator)
	loop = func(s *Simulator) { s.Schedule(time.Millisecond, "loop", loop) }
	sim.Schedule(0, "loop", loop)
	if err := sim.Run(); err == nil {
		t.Fatal("Run returned nil, want event-budget error")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	sim := New()
	sim.Schedule(time.Second, "outer", func(s *Simulator) {
		s.Schedule(-time.Hour, "inner", func(s *Simulator) {
			if s.Now() != time.Second {
				t.Errorf("inner fired at %v, want 1s", s.Now())
			}
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStep(t *testing.T) {
	sim := New()
	n := 0
	sim.Schedule(time.Second, "a", func(*Simulator) { n++ })
	sim.Schedule(2*time.Second, "b", func(*Simulator) { n++ })
	if !sim.Step() || n != 1 {
		t.Fatalf("after first Step n=%d", n)
	}
	if !sim.Step() || n != 2 {
		t.Fatalf("after second Step n=%d", n)
	}
	if sim.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTicker(t *testing.T) {
	sim := New()
	var at []time.Duration
	StartTicker(sim, time.Second, 2*time.Second, "tick", func(s *Simulator) bool {
		at = append(at, s.Now())
		return len(at) < 4
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second, 7 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticks at %v, want %v", at, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	sim := New()
	n := 0
	tk := StartTicker(sim, 0, time.Second, "tick", func(s *Simulator) bool {
		n++
		return true
	})
	sim.Schedule(2500*time.Millisecond, "stop", func(*Simulator) { tk.Stop() })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 { // ticks at 0s, 1s, 2s
		t.Fatalf("n = %d, want 3", n)
	}
}

// Property: for any random batch of scheduled delays, execution order is a
// stable sort of the requested times.
func TestPropertyOrderIsStableSort(t *testing.T) {
	f := func(seed int64, rawDelays []uint16) bool {
		if len(rawDelays) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		sim := New()
		type rec struct {
			at  time.Duration
			idx int
		}
		var got []rec
		for i, d := range rawDelays {
			at := time.Duration(d%1000) * time.Millisecond
			_ = rng
			i := i
			sim.ScheduleAt(at, "p", func(s *Simulator) {
				got = append(got, rec{at: s.Now(), idx: i})
			})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		if len(got) != len(rawDelays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false // not stable
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state Schedule + fire must not allocate: heap nodes are values,
// payloads recycle through the slot pool, and no interface boxing happens
// on either path.
func TestScheduleFireZeroAllocs(t *testing.T) {
	sim := New()
	var loop func(*Simulator)
	remaining := 0
	loop = func(s *Simulator) {
		if remaining > 0 {
			remaining--
			s.Schedule(time.Millisecond, "tick", loop)
		}
	}
	// Warm up pool, free list, and heap capacity.
	remaining = 512
	sim.Schedule(0, "tick", loop)
	if err := sim.Run(); err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	allocs := testing.AllocsPerRun(400, func() {
		remaining = 8
		sim.Schedule(0, "tick", loop)
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f allocs/op, want 0", allocs)
	}
}

// A Handle kept across its event's firing must not cancel the unrelated
// event that later reuses the same pool slot: generations make stale
// handles inert.
func TestCancelAfterReuseCannotKillWrongEvent(t *testing.T) {
	sim := New()
	firedA, firedB := false, false
	stale := sim.Schedule(time.Second, "a", func(*Simulator) { firedA = true })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !firedA {
		t.Fatal("event a did not fire")
	}
	// Slot of "a" is back on the free list; "b" reuses it.
	hB := sim.Schedule(time.Second, "b", func(*Simulator) { firedB = true })
	if hB.slot != stale.slot {
		t.Fatalf("test premise broken: b got slot %d, a had %d", hB.slot, stale.slot)
	}
	stale.Cancel() // stale: must be a no-op
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !firedB {
		t.Fatal("stale Cancel killed the event that reused the slot")
	}
}

// Cancelling before the slot is reused still works, including when the
// cancelled slot is recycled by a later schedule.
func TestCancelThenReuseSlot(t *testing.T) {
	sim := New()
	ran := ""
	h := sim.Schedule(time.Second, "dead", func(*Simulator) { ran += "dead" })
	h.Cancel()
	sim.Schedule(2*time.Second, "live", func(*Simulator) { ran += "live" })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != "live" {
		t.Fatalf("ran = %q, want only the live event", ran)
	}
	// Double-cancel and post-fire cancel stay no-ops.
	h.Cancel()
	var zero Handle
	zero.Cancel()
}
