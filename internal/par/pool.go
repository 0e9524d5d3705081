package par

import (
	"runtime"
	"sync"
)

// Pool is a fixed-size pool of long-lived workers that Run dispatches one
// function to, each call paying no goroutine startup. Worker 0 is the
// calling goroutine itself, which keeps the single-worker pool completely
// free of scheduling. No production kernel runs on a pool — each rank
// runs its kernels on its own goroutine; the benchmark's
// par.pool_dispatch_us probe measures the dispatch.
//
// Run is not reentrant: a function running on the pool must not call Run
// on the same pool again. It receives its worker index and derives its
// share of the work from it.
type Pool struct {
	n     int
	tasks []chan func(int)
	done  chan struct{}
	stop  *poolStop
}

// poolStop is shared with the workers (and the GC cleanup) without
// referencing the Pool itself, so an unclosed pool still shuts its
// workers down once it becomes unreachable.
type poolStop struct {
	once sync.Once
	ch   chan struct{}
}

func (s *poolStop) close() { s.once.Do(func() { close(s.ch) }) }

// NewPool starts a pool with n workers (clamped to at least 1). A pool
// with one worker runs everything on the caller and owns no goroutines.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n, stop: &poolStop{ch: make(chan struct{})}}
	if n > 1 {
		p.done = make(chan struct{}, n-1)
		p.tasks = make([]chan func(int), n)
		for w := 1; w < n; w++ {
			ch := make(chan func(int))
			p.tasks[w] = ch
			go poolWorker(w, ch, p.done, p.stop.ch)
		}
		// Backstop for callers that drop the pool without Close (e.g. a
		// solver discarded on remesh): release the workers when the pool
		// itself is collected. stop is reachable from the workers but not
		// the other way around, so the pool can become unreachable.
		runtime.AddCleanup(p, func(s *poolStop) { s.close() }, p.stop)
	}
	return p
}

func poolWorker(w int, tasks <-chan func(int), done chan<- struct{}, stop <-chan struct{}) {
	for {
		select {
		case f := <-tasks:
			f(w)
			done <- struct{}{}
		case <-stop:
			return
		}
	}
}

// Workers returns the worker count kernels must size their shards for.
func (p *Pool) Workers() int { return p.n }

// Run invokes f(w) for every worker index w in [0, Workers()) and returns
// when all have finished. f runs on the caller for w == 0. Dispatch is
// allocation-free: f travels to the workers over prearranged channels.
func (p *Pool) Run(f func(w int)) {
	for w := 1; w < p.n; w++ {
		p.tasks[w] <- f
	}
	f(0)
	for w := 1; w < p.n; w++ {
		<-p.done
	}
}

// Close shuts the worker goroutines down. Idempotent; Run must not be
// called after Close.
func (p *Pool) Close() { p.stop.close() }
