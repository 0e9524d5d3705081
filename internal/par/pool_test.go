package par

import (
	"sync/atomic"
	"testing"
)

// Workers returns the worker count kernels must size their shards for.
func (p *Pool) Workers() int { return p.n }

func TestPoolRunsEveryWorker(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		p := NewPool(n)
		if p.Workers() != n {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), n)
		}
		var mask atomic.Int64
		for rep := 0; rep < 3; rep++ {
			mask.Store(0)
			p.Run(func(w int) { mask.Add(1 << w) })
			if got, want := mask.Load(), int64(1<<n)-1; got != want {
				t.Fatalf("n=%d rep=%d: worker mask %b, want %b", n, rep, got, want)
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

func TestPoolShardedSumMatchesSerial(t *testing.T) {
	const n = 10000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i % 13)
	}
	var serial float64
	for _, v := range xs {
		serial += v
	}
	p := NewPool(4)
	defer p.Close()
	partials := make([]float64, p.Workers())
	p.Run(func(w int) {
		lo, hi := w*n/p.Workers(), (w+1)*n/p.Workers()
		var s float64
		for _, v := range xs[lo:hi] {
			s += v
		}
		partials[w] = s
	})
	var total float64
	for _, s := range partials {
		total += s
	}
	if total != serial {
		t.Fatalf("sharded sum %v != serial %v", total, serial)
	}
}
