// Package corpus exercises the lockcheck analyzer: "// guarded by <mu>"
// fields must be accessed only while the named mutex is held, with the
// lock-state scan understanding defer, early-return unlock branches,
// constructors of not-yet-shared values, goroutines, TryLock conditions,
// and the //optchain:locked caller-holds-the-lock contract.
package corpus

import "sync"

type counter struct {
	mu   sync.Mutex
	n    int            // guarded by mu
	tags map[string]int // guarded by mu
	name string         // not guarded: immutable after construction
}

func (c *counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) GoodExplicit() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}

func (c *counter) Bad() int {
	return c.n // want "counter.Bad accesses c.n without holding mu"
}

func (c *counter) BadWrite(k string) {
	c.tags[k]++ // want "counter.BadWrite accesses c.tags without holding mu"
}

func (c *counter) EarlyReturn(stop bool) int {
	c.mu.Lock()
	if stop {
		c.mu.Unlock()
		return -1
	}
	n := c.n // the unlocking branch returned; this path still holds mu
	c.mu.Unlock()
	return n
}

func (c *counter) UnlockRelock() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	expensive()
	c.mu.Lock()
	n += c.n
	c.mu.Unlock()
	return n
}

func (c *counter) AfterUnlock() int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want "counter.AfterUnlock accesses c.n without holding mu"
}

// An if on TryLock holds the mutex exactly where the call returned true.
func (c *counter) TryAdd(d int) bool {
	if d != 0 && c.mu.TryLock() {
		c.n += d
		c.mu.Unlock()
		return true
	}
	return c.n == 0 // want "counter.TryAdd accesses c.n without holding mu"
}

func (c *counter) TryGet() (int, bool) {
	if !c.mu.TryLock() {
		return c.n, false // want "counter.TryGet accesses c.n without holding mu"
	}
	defer c.mu.Unlock()
	return c.n, true // the branch that lost the race returned
}

// addLocked is the documented caller-holds-the-lock contract.
//
//optchain:locked callers in this file hold c.mu
func (c *counter) addLocked(d int) { c.n += d }

func (c *counter) Add(d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(d)
}

func newCounter(name string) *counter {
	c := &counter{name: name}
	c.n = 1 // fresh value: not visible to any other goroutine yet
	c.tags = make(map[string]int)
	return c
}

func (c *counter) Spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "counter.Spawn accesses c.n without holding mu"
	}()
}

func (c *counter) Name() string { return c.name } // unguarded field: fine

func expensive() {}

type badGuard struct {
	mu sync.Mutex
	// The annotation below names a field that does not exist.
	x int // want "names no field in this struct" // guarded by nosuch
}

// Cross-struct guards: a worker's chunk-local state is guarded by its
// owning pool's mutex, written as a dotted path through the back-reference.
type pool struct {
	mu      sync.Mutex
	workers []*worker // guarded by mu
}

type worker struct {
	pool *pool
	buf  []int // guarded by pool.mu
	id   int   // not guarded: immutable after construction
}

func (w *worker) GoodCross() int {
	w.pool.mu.Lock()
	defer w.pool.mu.Unlock()
	return len(w.buf)
}

func (w *worker) GoodCrossExplicit() {
	w.pool.mu.Lock()
	w.buf = w.buf[:0]
	w.pool.mu.Unlock()
}

func (w *worker) BadCross() int {
	return len(w.buf) // want "worker.BadCross accesses w.buf without holding mu"
}

func (w *worker) BadCrossAfterUnlock() {
	w.pool.mu.Lock()
	w.pool.mu.Unlock()
	w.buf = nil // want "worker.BadCrossAfterUnlock accesses w.buf without holding mu"
}

// The guard is name-based, so locking the parent through its own receiver
// covers child accesses in the same scope.
func drain(p *pool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		w.buf = w.buf[:0]
	}
}

// resetLocked documents the caller-holds-the-parent-lock contract.
//
//optchain:locked callers hold w.pool.mu
func (w *worker) resetLocked() { w.buf = w.buf[:0] }

func newWorker(p *pool) *worker {
	w := &worker{pool: p, id: 7}
	w.buf = make([]int, 0, 8) // fresh value: not shared yet
	return w
}

// Unresolvable guard paths are themselves diagnosed.
type badSegment struct {
	pool *pool
	n    int // want "pool has no struct field" // guarded by pool.nosuch
}

type badNonStruct struct {
	id int
	n  int // want "id has no struct field" // guarded by id.mu
}

type badRoot struct {
	mu sync.Mutex
	n  int // want "names no field in this struct" // guarded by nosuch.mu
}
