package fleet

import (
	"sync"
	"sync/atomic"
)

// Pool is the campaign's bounded worker pool: one semaphore shared by every
// parallel stage — mote simulation, uplink reassembly, model construction,
// streaming estimation — so the whole pipeline runs at most `workers` calls
// at once no matter how stages overlap. Calls must be pure functions of
// their inputs writing to caller-owned slots; the pool bounds concurrency
// only and never influences results.
type Pool struct {
	sem chan struct{}
}

// NewPool builds a pool running at most workers calls concurrently
// (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Each calls f(w, i) once for each i in [0, n) and returns when every call
// has returned. It starts min(n, Workers()) goroutines, which claim
// indices in ascending order; w in [0, min(n, Workers())) names the
// goroutine making the call, so f may keep per-goroutine scratch in a
// slice indexed by w. Each call holds one of the pool's slots, which
// concurrent Each calls share. f must not call Each on the same pool.
func (p *Pool) Each(n int, f func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(n, p.Workers()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				p.sem <- struct{}{}
				f(w, i)
				<-p.sem
			}
		}()
	}
	wg.Wait()
}
