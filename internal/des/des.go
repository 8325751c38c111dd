// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel plays the role OMNeT++ plays in the paper's evaluation: it owns
// a virtual clock and an event queue, and advances time by executing events
// in non-decreasing timestamp order. Determinism is guaranteed by breaking
// timestamp ties with a monotonically increasing sequence number, so two
// runs with the same inputs produce identical schedules.
//
// The queue is a value-based 4-ary min-heap over (time, seq) keys, and
// event payloads (name, callback) live in a free-list pool addressed by
// slot: Schedule and the pop in Run touch no interface methods and allocate
// nothing steady-state. Handles are generation-counted — a Handle whose
// pool slot has been recycled for a newer event cancels nothing.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// heapNode is one queue entry: the ordering key plus the pool slot holding
// the event's payload. Keeping nodes by value (16+8 bytes) makes sift
// operations straight memory moves with no pointer chasing or interface
// dispatch.
type heapNode struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// poolEvent is the payload of one scheduled event, stored in the
// simulator's slot pool and recycled through a free list after the event
// fires or its cancellation is collected.
type poolEvent struct {
	name string
	fn   func(*Simulator)
	gen  uint32
	dead bool
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is valid and cancels nothing.
type Handle struct {
	s    *Simulator
	slot int32
	gen  uint32
}

// Cancel marks the event dead; it will be skipped and its slot reclaimed
// when dequeued. Cancelling an already-fired or already-cancelled event is
// a no-op: the slot's generation counter advances on every reuse, so a
// stale Handle can never kill the event that now occupies its slot.
func (h Handle) Cancel() {
	if h.s == nil || h.slot < 0 || int(h.slot) >= len(h.s.pool) {
		return
	}
	p := &h.s.pool[h.slot]
	if p.gen != h.gen {
		return
	}
	p.dead = true
}

// Simulator is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Simulator struct {
	now     time.Duration
	heap    []heapNode
	pool    []poolEvent
	free    []int32
	nextSeq uint64
	stopped bool

	// Executed counts events that have fired (excluding cancelled ones).
	executed uint64
	// MaxEvents, when non-zero, aborts Run with ErrEventBudget after that
	// many events. It guards against runaway simulations.
	MaxEvents uint64

	// Interrupt, when non-nil, is polled every interruptEvery executed
	// events; a non-nil return aborts Run with that error. It is the bridge
	// between the virtual clock and wall-clock control (context
	// cancellation, deadlines) — the poll cadence bounds how much virtual
	// work can run after an external stop request.
	Interrupt func() error
}

// interruptEvery is the Interrupt poll cadence in events. It is a constant
// because every caller wants the same trade: cancellation within about a
// thousand events (well under a millisecond of wall time), with the poll
// kept off the per-event cost profile.
const interruptEvery = 1024

// ErrEventBudget is returned by Run when MaxEvents is exceeded.
var ErrEventBudget = errors.New("des: event budget exceeded")

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Executed reports how many events have fired so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Schedule enqueues fn to run after delay. A negative delay is treated as
// zero (the event fires at the current time, after events already queued for
// that time). It returns a Handle that can cancel the event.
//
//optchain:hotpath called for every simulated message hop.
func (s *Simulator) Schedule(delay time.Duration, name string, fn func(*Simulator)) Handle {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, name, fn)
}

// ScheduleAt enqueues fn at an absolute virtual time. Times in the past are
// clamped to the current time.
//
//optchain:hotpath pool-slot reuse keeps the enqueue allocation-free once the pool and heap reach steady-state size.
func (s *Simulator) ScheduleAt(at time.Duration, name string, fn func(*Simulator)) Handle {
	if at < s.now {
		at = s.now
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.pool = append(s.pool, poolEvent{})
		slot = int32(len(s.pool) - 1)
	}
	p := &s.pool[slot]
	p.name, p.fn, p.dead = name, fn, false
	seq := s.nextSeq
	s.nextSeq++
	s.push(heapNode{at: at, seq: seq, slot: slot})
	return Handle{s: s, slot: slot, gen: p.gen}
}

// release recycles a pool slot after its event fired or its cancellation
// was collected. Bumping the generation invalidates outstanding Handles.
func (s *Simulator) release(slot int32) {
	p := &s.pool[slot]
	p.gen++
	p.fn = nil
	p.name = ""
	p.dead = false
	s.free = append(s.free, slot)
}

// nodeLess orders heap nodes by (time, sequence) — the determinism
// contract.
func nodeLess(a, b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push sifts a node up a 4-ary heap using a hole (no pairwise swaps).
//
//optchain:hotpath
func (s *Simulator) push(n heapNode) {
	s.heap = append(s.heap, heapNode{})
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !nodeLess(n, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = n
}

// popMin removes and returns the minimum node. The 4-ary layout halves the
// tree depth of a binary heap; the wider sibling scan stays within one
// cache line of heapNodes.
//
//optchain:hotpath
func (s *Simulator) popMin() heapNode {
	h := s.heap
	min := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	s.heap = h
	if len(h) > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= len(h) {
				break
			}
			m := c
			end := c + 4
			if end > len(h) {
				end = len(h)
			}
			for j := c + 1; j < end; j++ {
				if nodeLess(h[j], h[m]) {
					m = j
				}
			}
			if !nodeLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return min
}

// Stop makes Run return after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue drains, Stop is called, or the event
// budget is exhausted.
func (s *Simulator) Run() error {
	return s.RunUntil(time.Duration(math.MaxInt64))
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is left at the last executed
// event's time (it does not jump to the deadline).
//
//optchain:hotpath the event dispatch loop; error paths are cold.
func (s *Simulator) RunUntil(deadline time.Duration) error {
	s.stopped = false
	for len(s.heap) > 0 && !s.stopped {
		if s.heap[0].at > deadline {
			return nil
		}
		next := s.popMin()
		p := &s.pool[next.slot]
		if p.dead {
			s.release(next.slot)
			continue
		}
		if next.at < s.now {
			// Heap invariant violated; indicates kernel corruption.
			//optchain:alloc-ok cold path: formatting the corruption report
			return fmt.Errorf("des: event %q at %v is before clock %v", p.name, next.at, s.now)
		}
		fn := p.fn
		// Release before invoking so the callback's own Schedule calls can
		// reuse the slot; the generation bump keeps stale Handles inert.
		s.release(next.slot)
		s.now = next.at
		s.executed++
		if s.MaxEvents != 0 && s.executed > s.MaxEvents {
			//optchain:alloc-ok cold path: the budget error ends the run
			return fmt.Errorf("%w (%d events)", ErrEventBudget, s.MaxEvents)
		}
		if s.Interrupt != nil && s.executed%interruptEvery == 0 {
			if err := s.Interrupt(); err != nil {
				return err
			}
		}
		if fn != nil {
			fn(s)
		}
	}
	return nil
}

// Step executes exactly one live event and returns true, or returns false if
// the queue is empty.
//
//optchain:hotpath
func (s *Simulator) Step() bool {
	for len(s.heap) > 0 {
		next := s.popMin()
		p := &s.pool[next.slot]
		if p.dead {
			s.release(next.slot)
			continue
		}
		fn := p.fn
		s.release(next.slot)
		s.now = next.at
		s.executed++
		if fn != nil {
			fn(s)
		}
		return true
	}
	return false
}
