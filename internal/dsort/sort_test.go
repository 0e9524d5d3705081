// Package dsort is the distributed sample sort of Sec. II-C3a of Saurabh
// et al. (IPDPS 2023), kept as a test-only package for the paper's sort
// benchmark (BenchmarkSort_StagedKWay against BenchmarkSort_Flat):
// production leaves are always in SFC order and are repartitioned by
// octree.PartitionWeighted, so no production binary sorts distributed
// keys. The staged variant follows the hierarchical k-way pattern (itself
// in the HykSort family of hypercube exchange sorts): the number of
// superpartitions is kept below a constant k for each of O(log_k p)
// stages, splitter-selection storage is O(k) rather than O(p), and the
// data exchange is staged to avoid the congestion of a flat Alltoallv.
package dsort

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"proteus/internal/par"
	"proteus/internal/sfc"
)

// defaultKWay is the default fan-out of the staged exchange; the paper
// uses k = 128 so that at most three stages cover 2M processes.
const defaultKWay = 128

// Options configures a distributed sort.
type Options struct {
	// KWay bounds the number of superpartitions per stage. Zero means
	// defaultKWay.
	KWay int
	// Oversample is the number of splitter samples each rank contributes
	// per stage. Zero means 4*KWay.
	Oversample int
	// Flat switches to the baseline single-stage sort (allgathered
	// samples, one flat Alltoallv) that the staged variant replaces.
	Flat bool
}

func (o Options) kway() int {
	if o.KWay <= 0 {
		return defaultKWay
	}
	return o.KWay
}

func (o Options) oversample() int {
	if o.Oversample <= 0 {
		return 4 * o.kway()
	}
	return o.Oversample
}

// Sort globally sorts the union of every rank's local records by less and
// returns this rank's contiguous, globally ordered partition: every record
// on rank r precedes every record on rank r+1. The result is approximately
// load balanced; call Repartition for exact balancing.
func Sort[T any](c *par.Comm, local []T, less func(a, b T) bool, opt Options) []T {
	sort.SliceStable(local, func(i, j int) bool { return less(local[i], local[j]) })
	if c.Size() == 1 {
		return local
	}
	if opt.Flat {
		return flatSort(c, local, less, opt)
	}
	cur := c
	level := 0
	for cur.Size() > 1 {
		k := opt.kway()
		if k > cur.Size() {
			k = cur.Size()
		}
		local = stageExchange(cur, local, less, k, opt.oversample(), level)
		gsz := (cur.Size() + k - 1) / k
		myGroup := cur.Rank() / gsz
		cur = cur.CommSplitCached(fmt.Sprintf("dsort-%d", level), myGroup, cur.Rank())
		level++
	}
	return local
}

// stageExchange partitions cur's ranks into <=k contiguous supergroups,
// selects k-1 splitters with O(k)-storage resampled reduction, and routes
// each rank's buckets to the owning supergroup with one message per group.
// Returns the merged locally sorted data now confined to this rank's
// supergroup key range.
func stageExchange[T any](cur *par.Comm, local []T, less func(a, b T) bool, k, oversample, level int) []T {
	cp := cur.Size()
	gsz := (cp + k - 1) / k
	ngroups := (cp + gsz - 1) / gsz
	splitters := selectSplitters(cur, local, less, ngroups-1, oversample)
	// Bucket the (sorted) local data by splitter ranges.
	buckets := make([][]T, ngroups)
	lo := 0
	for g := 0; g < ngroups; g++ {
		hi := len(local)
		if g < len(splitters) {
			s := splitters[g]
			hi = lo + sort.Search(len(local)-lo, func(i int) bool { return !less(local[lo+i], s) })
		}
		buckets[g] = local[lo:hi]
		lo = hi
	}
	myGroup := cur.Rank() / gsz
	myIdx := cur.Rank() - myGroup*gsz
	mySubSize := subgroupSize(cp, gsz, myGroup)
	tag := 7 // user-range tag; uniqueness comes from one exchange per level barrier below
	for g := 0; g < ngroups; g++ {
		sz := subgroupSize(cp, gsz, g)
		pivot := g*gsz + cur.Rank()%sz
		par.SendSlice(cur, pivot, tag, buckets[g])
	}
	expect := 0
	for i := 0; i < cp; i++ {
		if i%mySubSize == myIdx {
			expect++
		}
	}
	var runs [][]T
	for m := 0; m < expect; m++ {
		v, _ := par.RecvSlice[T](cur, par.AnySource, tag)
		if len(v) > 0 {
			runs = append(runs, v)
		}
	}
	merged := mergeRuns(runs, less)
	// Separate successive stages' point-to-point traffic.
	cur.Barrier()
	return merged
}

// selectSplitters returns n approximate quantile splitters of the global
// data using a resampling reduction: sample sets are merged pairwise and
// re-decimated to a bounded size, so no rank ever stores more than
// O(oversample) candidates (the paper's O(k) splitter storage).
func selectSplitters[T any](c *par.Comm, local []T, less func(a, b T) bool, n, oversample int) []T {
	if n <= 0 {
		return nil
	}
	samples := decimate(local, oversample)
	all := par.Reduce(c, 0, samples, func(a, b []T) []T {
		m := mergeRuns([][]T{a, b}, less)
		return decimate(m, oversample)
	})
	all = par.BcastSlice(c, 0, all)
	// Pick n evenly spaced splitters from the final sample set.
	out := make([]T, 0, n)
	if len(all) == 0 {
		return out
	}
	for i := 1; i <= n; i++ {
		idx := i * len(all) / (n + 1)
		if idx >= len(all) {
			idx = len(all) - 1
		}
		out = append(out, all[idx])
	}
	return out
}

// decimate returns up to m evenly spaced elements of sorted s.
func decimate[T any](s []T, m int) []T {
	if len(s) <= m {
		out := make([]T, len(s))
		copy(out, s)
		return out
	}
	out := make([]T, 0, m)
	for i := 0; i < m; i++ {
		out = append(out, s[i*len(s)/m])
	}
	return out
}

// mergeRuns k-way merges sorted runs.
func mergeRuns[T any](runs [][]T, less func(a, b T) bool) []T {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		out := make([]T, len(runs[0]))
		copy(out, runs[0])
		return out
	}
	// Binary merge cascade: simple and allocation-friendly for the modest
	// run counts produced by staged exchanges (<= k runs).
	for len(runs) > 1 {
		var next [][]T
		for i := 0; i+1 < len(runs); i += 2 {
			next = append(next, merge2(runs[i], runs[i+1], less))
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	return runs[0]
}

func merge2[T any](a, b []T, less func(x, y T) bool) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func subgroupSize(p, gsz, g int) int {
	s := p - g*gsz
	if s > gsz {
		s = gsz
	}
	return s
}

// flatSort is the baseline: allgather oversampled splitters, bucket, and
// exchange with a single flat Alltoallv.
func flatSort[T any](c *par.Comm, local []T, less func(a, b T) bool, opt Options) []T {
	p := c.Size()
	samples := decimate(local, opt.oversample())
	all := par.Allgatherv(c, samples)
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	splitters := make([]T, 0, p-1)
	for i := 1; i < p; i++ {
		if len(all) == 0 {
			break
		}
		idx := i * len(all) / p
		if idx >= len(all) {
			idx = len(all) - 1
		}
		splitters = append(splitters, all[idx])
	}
	bufs := make([][]T, p)
	lo := 0
	for r := 0; r < p; r++ {
		hi := len(local)
		if r < len(splitters) {
			s := splitters[r]
			hi = lo + sort.Search(len(local)-lo, func(i int) bool { return !less(local[lo+i], s) })
		}
		bufs[r] = local[lo:hi]
		lo = hi
	}
	got := par.Alltoallv(c, bufs)
	var runs [][]T
	for _, g := range got {
		if len(g) > 0 {
			runs = append(runs, g)
		}
	}
	return mergeRuns(runs, less)
}

// Repartition redistributes globally ordered per-rank slices so that rank
// r ends up with counts[r] records (sum of counts must equal the global
// record count), preserving global order. A nil counts requests equal
// partitioning with remainders on the leading ranks.
func Repartition[T any](c *par.Comm, local []T, counts []int64) []T {
	p := c.Size()
	n := int64(len(local))
	total := par.Allreduce(c, n, func(a, b int64) int64 { return a + b })
	if counts == nil {
		counts = make([]int64, p)
		base := total / int64(p)
		rem := total % int64(p)
		for r := range counts {
			counts[r] = base
			if int64(r) < rem {
				counts[r]++
			}
		}
	}
	var sum int64
	for _, v := range counts {
		sum += v
	}
	if sum != total {
		panic(fmt.Sprintf("dsort.Repartition: counts sum %d != global total %d", sum, total))
	}
	// Global offset of my first record, and target offsets of each rank.
	myOff := par.Exscan(c, n, 0, func(a, b int64) int64 { return a + b })
	starts := make([]int64, p+1)
	for r := 0; r < p; r++ {
		starts[r+1] = starts[r] + counts[r]
	}
	bufs := make([][]T, p)
	for r := 0; r < p; r++ {
		lo := maxI64(starts[r], myOff)
		hi := minI64(starts[r+1], myOff+n)
		if lo < hi {
			bufs[r] = local[lo-myOff : hi-myOff]
		}
	}
	got := par.Alltoallv(c, bufs)
	out := make([]T, 0, counts[c.Rank()])
	for r := 0; r < p; r++ {
		out = append(out, got[r]...)
	}
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// benchSort sorts random level-6 octant keys over 64 ranks, staged k-way
// or flat, and reports every message the world sent, read once Run has
// returned. There are enough ranks for the staged exchange's O(k + p/k)
// messages per rank to beat the flat O(p); the paper's crossover is at
// tens of thousands of cores, the in-process one is around p ~ 32.
func benchSort(b *testing.B, flat bool) {
	const p = 64
	var st *par.Stats
	for i := 0; i < b.N; i++ {
		par.Run(p, func(c *par.Comm) {
			if c.Rank() == 0 {
				st = c.Stats()
			}
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			local := make([]sfc.Octant, 2000)
			for j := range local {
				o := sfc.Root(3)
				for l := 0; l < 6; l++ {
					o = o.Child(rng.Intn(8))
				}
				local[j] = o
			}
			Sort(c, local, sfc.Less, Options{KWay: 8, Flat: flat})
		})
	}
	b.ReportMetric(float64(st.Messages.Load()), "messages")
}

func BenchmarkSort_StagedKWay(b *testing.B) { benchSort(b, false) }
func BenchmarkSort_Flat(b *testing.B)       { benchSort(b, true) }
