// Package corpus exercises the spawncheck analyzer: library goroutines must
// be joined (WaitGroup Add/Done or channel delivery) and must recover panics
// for re-raise on the joining side; //optchain:detached documents
// fire-and-forget.
package corpus

import "sync"

type task struct {
	wg       *sync.WaitGroup
	panicked any
}

// runTask is the joined, panic-safe named-function worker (the pattern of
// experiment.Runner.Stream's cell workers, as a named function).
func runTask(t *task) {
	defer func() {
		t.panicked = recover()
		t.wg.Done()
	}()
	work()
}

type pool struct {
	wg    sync.WaitGroup
	tasks []task
}

// fanOut joins named-function workers through the shared WaitGroup — clean.
func (p *pool) fanOut() {
	p.wg.Add(len(p.tasks))
	for i := range p.tasks {
		p.tasks[i].wg = &p.wg
		go runTask(&p.tasks[i])
	}
	p.wg.Wait()
}

// fireAndForget spawns with no join and no recover.
func (p *pool) fireAndForget() {
	go func() { // want "unjoined" "does not recover"
		work()
	}()
}

// misplacedAdd calls Done in the goroutine but never Add before spawning.
func (p *pool) misplacedAdd() {
	go func() { // want "never Add"
		defer func() {
			_ = recover()
			p.wg.Done()
		}()
		work()
	}()
	p.wg.Wait()
}

// resultChan delivers over a channel — a join — and recovers. Clean.
func resultChan() <-chan int {
	ch := make(chan int, 1)
	go func() {
		defer func() { _ = recover() }()
		defer close(ch)
		ch <- 1
	}()
	return ch
}

// spawnValue cannot be verified: the body is behind a function value.
func spawnValue(fn func()) {
	go fn() // want "cannot be resolved"
}

// detached is documented fire-and-forget.
func detached() {
	go work() //optchain:detached corpus: documented fire-and-forget worker
}

func work() {}
