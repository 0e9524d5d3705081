package la

import (
	"fmt"
	"math"
	"testing"
)

// selfScatter is a one-rank exchange whose ghost nodes are copies of the
// first `ghost` owned nodes, and which allocates nothing.
type selfScatter struct{ owned, ghost int }

func (s selfScatter) GhostRead(v []float64, ndof int) {
	copy(v[s.owned*ndof:(s.owned+s.ghost)*ndof], v[:s.ghost*ndof])
}

func (s selfScatter) GlobalSum(v float64) float64 { return v }

// wsJob is one KSP of the workspace tests: a method on a scalar grid
// operator applied to k interleaved components, with its PC, RHS and
// initial guess.
type wsJob struct {
	name   string
	method Method
	op     *BSRMat
	pc     PC
	b, x0  []float64
}

// wsJobs builds one job per method and component count on an nx x ny grid
// with ghost columns.
func wsJobs(nx, ny int, seed int64) []wsJob {
	var jobs []wsJob
	for _, method := range []Method{CG, BiCGS, IBiCGS} {
		for k := 1; k <= 3; k++ {
			seed++
			m := gridSystem(selfScatter{owned: nx * ny, ghost: ny}, nx, ny, 1, gridPattern{ghosts: true}, seed)
			m.SetComps(k)
			j := wsJob{name: fmt.Sprintf("%s/k=%d/%dx%d", method, k, nx, ny), method: method, op: m,
				b: make([]float64, m.FullLen()), x0: make([]float64, m.FullLen())}
			if method == CG {
				j.pc = NewPCJacobi(m)
			} else {
				j.pc = NewPCBJacobiILU0(m)
			}
			for i := 0; i < m.Rows(); i++ {
				j.b[i] = math.Sin(0.37*float64(i) + float64(seed))
				j.x0[i] = 0.1 * math.Cos(0.11*float64(i))
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// solve runs the job's solve from its initial guess in x on KSP k.
func (j *wsJob) solve(k *KSP, x []float64) (Result, error) {
	copy(x, j.x0)
	k.Op, k.PC, k.Type, k.Rtol, k.MaxIt = j.op, j.pc, j.method, 1e-9, 60
	return k.Solve(j.b, x)
}

// TestSharedWorkspaceMatchesPrivate: KSPs running CG, BiCGS and IBiCGS on
// 1 to 3 interleaved components, on grids that grow and shrink from one
// round to the next, solve in interleaved order in one Workspace — each
// solve finds the vectors sized and filled by another shape and method —
// and reach the iterates, iteration counts and residuals of KSPs with
// fresh private workspaces bit for bit. Once the workspace has grown to
// the largest grid, a warm interleaved cycle allocates nothing.
func TestSharedWorkspaceMatchesPrivate(t *testing.T) {
	sizes := [][2]int{{6, 5}, {11, 8}, {4, 3}, {13, 9}, {7, 6}}
	rounds := make([][]wsJob, len(sizes))
	for r, sz := range sizes {
		rounds[r] = wsJobs(sz[0], sz[1], int64(100*r))
	}
	ws := new(Workspace)
	shared := make([]KSP, len(rounds[0]))
	for i := range shared {
		shared[i].Work = ws
	}
	for r, jobs := range rounds {
		for i := range jobs {
			j := &jobs[i]
			got := make([]float64, j.op.FullLen())
			gres, gerr := j.solve(&shared[i], got)
			want := make([]float64, j.op.FullLen())
			wres, werr := j.solve(&KSP{}, want)
			if gerr != nil || werr != nil {
				t.Fatalf("round %d %s: errors %v, %v", r, j.name, gerr, werr)
			}
			if shared[i].own != nil {
				t.Fatalf("round %d %s: a KSP given a workspace built a private one", r, j.name)
			}
			if gres.Iterations != wres.Iterations || gres.Converged != wres.Converged ||
				math.Float64bits(gres.Residual) != math.Float64bits(wres.Residual) {
				t.Fatalf("round %d %s: shared %+v, private %+v", r, j.name, gres, wres)
			}
			if gres.Iterations < 2 {
				t.Fatalf("round %d %s: %d iterations exercise no workspace vector", r, j.name, gres.Iterations)
			}
			mustEqualBits(t, fmt.Sprintf("round %d %s iterate", r, j.name), got[:j.op.Rows()], want[:j.op.Rows()])
		}
	}
	x := make([]float64, rounds[3][len(rounds[3])-1].op.FullLen())
	cycle := func() {
		for _, r := range []int{4, 2, 3, 0} {
			for i := range rounds[r] {
				j := &rounds[r][i]
				j.solve(&shared[i], x[:j.op.FullLen()])
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(3, cycle); allocs != 0 {
		t.Fatalf("a warm interleaved cycle allocates %v times, want 0", allocs)
	}
}
