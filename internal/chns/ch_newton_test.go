package chns

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/octree"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// gradedMesh builds a distributed 2:1-balanced mesh refined from level
// base to level fine inside a ball around (0.35, 0.6, 0.4), so it has
// hanging nodes, with the leaves sliced evenly across the ranks.
func gradedMesh(c *par.Comm, dim, base, fine int) *mesh.Mesh {
	return mesh.New(c, dim, gradedLeaves(c, dim, base, fine, 0.25))
}

// gradedLeaves is this rank's slice of gradedMesh's forest with ball
// radius r.
func gradedLeaves(c *par.Comm, dim, base, fine int, r float64) []sfc.Octant {
	tr := octree.Build(dim, func(o sfc.Octant) bool {
		if int(o.Level) < base {
			return true
		}
		if int(o.Level) >= fine {
			return false
		}
		s := float64(o.Side()) / float64(sfc.MaxCoord)
		x := float64(o.X)/float64(sfc.MaxCoord) + s/2
		y := float64(o.Y)/float64(sfc.MaxCoord) + s/2
		r2 := (x-0.35)*(x-0.35) + (y-0.6)*(y-0.6)
		if dim == 3 {
			z := float64(o.Z)/float64(sfc.MaxCoord) + s/2
			r2 += (z - 0.4) * (z - 0.4)
		}
		return r2 < r*r
	}, fine, nil).Balance21(nil)
	n := tr.Len()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	return append([]sfc.Octant(nil), tr.Leaves[lo:hi]...)
}

// chTestProblem sets up a CH Newton problem with every term of the
// residual active: an adapted mesh with hanging nodes, a diffuse
// interface (|φ| < 1, so the mobility derivative is non-zero), μ and the
// time-n state unrelated smooth fields, a non-zero velocity, a Cahn
// number that varies per element, and θ = 0.5.
func chTestProblem(c *par.Comm, dim int) (*Solver, *chProblem) {
	return chTestProblemOn(gradedMesh(c, dim, 2, 4-dim/3))
}

// chTestProblemOn is chTestProblem on a given graded mesh.
func chTestProblemOn(m *mesh.Mesh) (*Solver, *chProblem) {
	dim := m.Dim
	if m.GlobalSum(float64(m.HangingCorners)) == 0 {
		panic("test mesh has no hanging nodes")
	}
	prm := DefaultParams()
	prm.Cn = 0.08
	opt := DefaultOptions(2e-3)
	s := NewSolver(m, prm, opt)
	for e := range s.ElemCn {
		if ox, _, _ := m.ElemOrigin(e); ox < 0.5 {
			s.ElemCn[e] = 0.05
		}
	}
	old := m.NewVec(2)
	for i := 0; i < m.NumLocal; i++ {
		x, y, z := m.NodeCoord(i)
		d := 0.25 - math.Sqrt((x-0.4)*(x-0.4)+(y-0.55)*(y-0.55)+(z-0.4)*(z-0.4)*float64(dim-2))
		s.PhiMu[2*i] = 0.9*EquilibriumProfile(d, prm.Cn) + 0.05*math.Sin(5*x+3*y+z)
		s.PhiMu[2*i+1] = 0.3*math.Cos(4*x-2*y) + 0.2*math.Sin(3*z+y)
		old[2*i] = 0.85 * EquilibriumProfile(d+0.01, prm.Cn)
		old[2*i+1] = 0.25*math.Cos(3*x+y) - 0.1*z
	}
	s.SetVelocity(func(x, y, z float64) (float64, float64, float64) {
		return -(y - 0.5), x - 0.5, 0.3 * math.Sin(2*x)
	})
	m.GhostRead(s.PhiMu, 2)
	m.GhostRead(s.Vel, dim)
	s.chProb = chProblem{s: s, old: old, dt: opt.Dt, theta: opt.Theta}
	return s, &s.chProb
}

// TestCHJacobianMatchesFiniteDifference is the oracle for the CH Newton
// Jacobian: J(x)·v must equal the central difference of the residual
// along v, for every dimension and rank count.
func TestCHJacobianMatchesFiniteDifference(t *testing.T) {
	const eps = 1e-6
	for _, dim := range []int{2, 3} {
		for _, ranks := range []int{1, 2} {
			par.Run(ranks, func(c *par.Comm) {
				s, p := chTestProblem(c, dim)
				m, x := s.M, s.PhiMu
				v, jv := m.NewVec(2), m.NewVec(2)
				for i := 0; i < m.NumLocal; i++ {
					px, py, pz := m.NodeCoord(i)
					v[2*i] = math.Sin(17*px + 29*py + 11*pz)
					v[2*i+1] = math.Cos(23*px - 13*py + 7*pz)
				}
				op, _ := p.Jacobian(x)
				op.Apply(v, jv)
				xp, xm := m.NewVec(2), m.NewVec(2)
				for i := range x {
					xp[i], xm[i] = x[i]+eps*v[i], x[i]-eps*v[i]
				}
				rp, rm := m.NewVec(2), m.NewVec(2)
				p.Residual(xp, rp)
				p.Residual(xm, rm)
				sums := make([]float64, 2)
				for i := 0; i < 2*m.NumOwned; i++ {
					d := jv[i] - (rp[i]-rm[i])/(2*eps)
					sums[0] += d * d
					sums[1] += jv[i] * jv[i]
				}
				m.GlobalSumInto(sums)
				if rel := math.Sqrt(sums[0] / sums[1]); !(rel <= 1e-6) {
					panic(fmt.Sprintf("dim=%d ranks=%d: |J v - dR/dv| / |J v| = %.3e", dim, ranks, rel))
				}
			})
		}
	}
}

// TestMobilityPrime checks m'(φ) against central differences where m is
// smooth, and that it is exactly 0 wherever Mobility clamps or floors.
func TestMobilityPrime(t *testing.T) {
	p := DefaultParams()
	const eps = 1e-6
	for _, phi := range []float64{-0.999, -0.9, -0.3, 0, 0.2, 0.75, 0.99, 0.999} {
		fd := (p.Mobility(phi+eps) - p.Mobility(phi-eps)) / (2 * eps)
		if got := p.MobilityPrime(phi); math.Abs(got-fd) > 1e-6*math.Max(1, math.Abs(fd)) {
			t.Errorf("MobilityPrime(%v) = %v, central difference %v", phi, got, fd)
		}
	}
	floorKink := math.Sqrt(1 - mobilityFloor*mobilityFloor)
	for _, phi := range []float64{floorKink, -floorKink, 0.99999, 1, -1, 1.2, -3} {
		if got := p.MobilityPrime(phi); got != 0 {
			t.Errorf("MobilityPrime(%v) = %v on a clamped/floored value, want 0", phi, got)
		}
	}
}

// TestCHTimerTreeCloses: on warm steps each stage's Matrix, Vector,
// PCSetup and Solve sub-timers account for at least 90% of its Total
// (CH books its Newton-inner Krylov time to Solve), and every stage
// spends time in Solve. The coarse-level assembly share PCSetupLevels is
// at most PCSetup, zero under block-Jacobi and nonzero for NS and PP under
// GMG (subtests gmg/ns, gmg/pp); so is the shared ladder build MGLadder,
// which no stage's PCSetup contains.
//
// Closure is judged per step: the median warm step's ratio must reach
// 0.9, so a step that a preemption or a pause stretched outside the
// sub-timers cannot fail the test, while a cost every step pays outside
// them still does.
func TestCHTimerTreeCloses(t *testing.T) {
	const warmSteps = 15
	stages := []struct {
		name string
		st   func(*Timers) StageTimes
	}{
		{"ch", func(tm *Timers) StageTimes { return tm.CH }},
		{"ns", func(tm *Timers) StageTimes { return tm.NS }},
		{"pp", func(tm *Timers) StageTimes { return tm.PP }},
		{"vu", func(tm *Timers) StageTimes { return tm.VU }},
	}
	// warm returns the solver's timers after one cold step and after
	// each of warmSteps warm ones.
	warm := func(pc string) []Timers {
		tms := make([]Timers, 0, warmSteps+1)
		par.Run(1, func(c *par.Comm) {
			s := gmgSolver(c, pc, 5, 2e-3)
			for i := 0; i <= warmSteps; i++ {
				if _, err := s.Step(); err != nil {
					panic(err)
				}
				tms = append(tms, s.T)
			}
		})
		return tms
	}
	check := func(t *testing.T, name string, st func(*Timers) StageTimes, tms []Timers, gmg bool) {
		ratios := make([]float64, 0, warmSteps)
		for i := 1; i < len(tms); i++ {
			a, b := st(&tms[i-1]), st(&tms[i])
			parts := (b.Matrix - a.Matrix) + (b.Vector - a.Vector) + (b.PCSetup - a.PCSetup) + (b.Solve - a.Solve)
			ratios = append(ratios, float64(parts)/float64(b.Total-a.Total))
		}
		slices.Sort(ratios)
		a, b := st(&tms[0]), st(&tms[len(tms)-1])
		if med := ratios[len(ratios)/2]; b.Solve == a.Solve || !(med >= 0.9) {
			t.Fatalf("%s: median step's sub-timers %.3f of its total (steps %.3f; solve %v)", name, med, ratios, b.Solve-a.Solve)
		}
		levels, setup := b.PCSetupLevels-a.PCSetupLevels, b.PCSetup-a.PCSetup
		if levels > setup || (levels > 0) != gmg {
			t.Fatalf("%s coarse-level assembly %v of PC set-up %v (GMG %v)", name, levels, setup, gmg)
		}
	}
	bj := warm(PCBJacobi)
	for _, tc := range stages {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.name, tc.st, bj, false) })
	}
	g := warm(PCGMG)
	g0, g1, b1 := g[0].MGLadder, g[len(g)-1].MGLadder, bj[len(bj)-1].MGLadder
	if b1 != 0 || g0 == 0 || g1 != g0 {
		t.Fatalf("GMG ladder build %v under block-Jacobi, %v then %v over warm steps under GMG", b1, g0, g1)
	}
	for _, tc := range stages[1:3] {
		t.Run("gmg/"+tc.name, func(t *testing.T) { check(t, tc.name, tc.st, g, true) })
	}
}

// reexchange is a NewtonProblem whose Jacobian re-runs the ghost exchange
// on the iterate first — what chProblem.Jacobian did before the contract
// on la.NewtonProblem made it redundant.
type reexchange struct {
	*chProblem
	calls int
}

func (p *reexchange) Jacobian(x []float64) (la.Operator, la.PC) {
	p.calls++
	p.s.M.GhostRead(x, 2)
	return p.chProblem.Jacobian(x)
}

// TestCHJacobianNeedsNoGhostExchange: on 2 ranks, a CH solve whose
// Jacobian re-exchanges the iterate sends exactly one ghost exchange more
// per Newton iteration than the production one, for a bitwise identical
// result.
func TestCHJacobianNeedsNoGhostExchange(t *testing.T) {
	// run returns the world's total message count, the number of Jacobian
	// evaluations and the owned solution; extraReads ghost exchanges are
	// appended to calibrate the message cost of one exchange.
	run := func(redundant bool, extraReads int) (msgs int64, jacs int, sol []float64) {
		var st *par.Stats
		par.Run(2, func(c *par.Comm) {
			s, p := chTestProblem(c, 2)
			nw := &la.Newton{KSP: la.BiCGS, Rtol: 1e-10, Atol: 1e-10, LinRtol: 1e-8, Red: s.M}
			wrapped := &reexchange{chProblem: p}
			var prob la.NewtonProblem = p
			if redundant {
				prob = wrapped
			}
			if ok, err := nw.Solve(prob, s.PhiMu); err != nil || !ok {
				panic(fmt.Sprintf("CH Newton failed: ok=%v err=%v", ok, err))
			}
			for i := 0; i < extraReads; i++ {
				s.M.GhostRead(s.PhiMu, 2)
			}
			all := par.Allgatherv(c, s.PhiMu[:2*s.M.NumOwned])
			if c.Rank() == 0 {
				st, jacs, sol = c.Stats(), nw.Iterations, all
				if redundant && wrapped.calls != nw.Iterations {
					panic(fmt.Sprintf("%d Jacobian calls for %d Newton iterations", wrapped.calls, nw.Iterations))
				}
			}
		})
		return st.Messages.Load(), jacs, sol
	}
	lean, its, a := run(false, 0)
	perExchange, _, _ := run(false, 1)
	perExchange -= lean
	fat, _, b := run(true, 0)
	if perExchange <= 0 || its == 0 || fat-lean != int64(its)*perExchange {
		t.Fatalf("messages: %d without / %d with the Jacobian exchange, %d Newton iterations x %d messages per exchange",
			lean, fat, its, perExchange)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("solution differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
