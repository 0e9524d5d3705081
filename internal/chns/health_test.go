package chns

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"proteus/internal/la"
	"proteus/internal/par"
)

// healthTestSolver builds a warm 2D solver (one clean step taken) on a
// uniform mesh.
func healthTestSolver(c *par.Comm) *Solver {
	m := uniformMesh(c, 2, 3)
	p := DefaultParams()
	p.Cn = 0.1
	p.Fr = 1
	s := NewSolver(m, p, DefaultOptions(1e-3))
	s.SetPhi(func(x, y, z float64) float64 {
		return EquilibriumProfile(0.2-math.Hypot(x-0.5, y-0.45), p.Cn)
	})
	if err := s.InitMuFromPhi(); err != nil {
		panic(err)
	}
	if _, err := s.Step(); err != nil {
		panic(err)
	}
	return s
}

// TestFiniteScanDetects plants NaN and ±Inf at the first, middle and
// last owned entry of each scanned field and checks the scan
// flags them — and, through checkFinite's global reduction, that every
// rank agrees even when only one holds the bad value.
func TestFiniteScanDetects(t *testing.T) {
	par.Run(2, func(c *par.Comm) {
		s := healthTestSolver(c)
		m := s.M
		fields := []struct {
			name string
			v    []float64
			n    int
		}{
			{"phimu", s.PhiMu, 2 * m.NumOwned},
			{"vel", s.Vel, 2 * m.NumOwned},
			{"p", s.P, m.NumOwned},
		}
		for _, f := range fields {
			if bad := s.scanBad(f.v, f.n); bad != 0 {
				panic(fmt.Sprintf("%s: clean field flagged (mask %x)", f.name, bad))
			}
			for _, idx := range []int{0, f.n / 2, f.n - 1} {
				for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					old := f.v[idx]
					// Poison on rank 1 only: the verdict must still be
					// collective via the global reduction in checkFinite.
					if c.Rank() == 1 {
						f.v[idx] = poison
					}
					localBad := s.scanBad(f.v, f.n)
					if c.Rank() == 1 && localBad == 0 {
						panic(fmt.Sprintf("%s[%d] = %v not flagged locally", f.name, idx, poison))
					}
					err := s.checkFinite(StageCH, localBad, la.Result{})
					var div *ErrDiverged
					if !errors.As(err, &div) || div.Kind != DivergeNonFinite {
						panic(fmt.Sprintf("rank %d: %s[%d] = %v: got %v, want a nonfinite ErrDiverged",
							c.Rank(), f.name, idx, poison, err))
					}
					f.v[idx] = old
				}
			}
		}
	})
}

// TestFiniteScanZeroAlloc pins the clean-path cost of the health layer:
// the scan plus its collective verdict allocate nothing per
// step once the solver is warm.
func TestFiniteScanZeroAlloc(t *testing.T) {
	par.Run(1, func(c *par.Comm) {
		s := healthTestSolver(c)
		m := s.M
		allocs := testing.AllocsPerRun(10, func() {
			bad := s.scanBad(s.PhiMu, 2*m.NumOwned) | s.scanBad(s.Vel, 2*m.NumOwned) | s.scanBad(s.P, m.NumOwned)
			if err := s.checkFinite(StageCH, bad, la.Result{}); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			panic(fmt.Sprintf("finite scan allocates %v per run, want 0", allocs))
		}
	})
}
