package mg

import (
	"proteus/internal/fem"
	"proteus/internal/la"
	"proteus/internal/mesh"
	"proteus/internal/par"
)

// Coefficient names one fine-mesh field the level operators depend on
// (e.g. φ/μ for the mixture density, the velocity for convection). Refresh
// injects each down the ladder before reassembling the level operators.
type Coefficient struct {
	Vec  []float64 // full local fine-mesh vector (aliased, not copied)
	Ndof int
}

// Config fixes one GMG preconditioner instance. Every level operator is
// one scalar operator A (one row per mesh node) applied to Ndof
// interleaved components as A ⊗ I_Ndof (la.BSRMat.SetComps): the V-cycle's
// vectors, transfers and smoothers carry Ndof components per node, the
// stored operators and ILU(0) factors one. The fine operator is the
// stage's, in the same form.
type Config struct {
	// Ndof is the number of interleaved components per node of the
	// preconditioned system: 1 for a scalar system (pressure), dim for the
	// NS momentum operator on the velocity.
	Ndof int
	// Coefs are the fine-mesh fields the level operators are assembled
	// from; Refresh re-injects them to every level.
	Coefs []Coefficient
	// Assemble fills lvl.Mat (already allocated/zeroed: the scalar A, on
	// the level's one-dof-per-node assembler in fem.LayoutAIJ) from
	// lvl.Coef on a coarse level, including the level's boundary-condition
	// row edits. It runs serially per rank, so a kernel may keep one
	// scratch per level in Level.Scratch.
	Assemble func(lvl *Level)
	// BoundaryDirichlet masks domain-boundary rows in the inter-level
	// transfers (restricted residuals and prolonged corrections), for
	// systems with Dirichlet walls on every level (the NS velocity block).
	BoundaryDirichlet bool
}

// V-cycle sweep counts: one ILU(0) smoothing sweep per level on the way
// down and up, and coarseSweeps standing in for a direct solve on the
// coarsest level. The smoothing is undamped.
const (
	preSweeps    = 1
	postSweeps   = 1
	coarseSweeps = 8
)

// Level is one rung of the preconditioner: its mesh, the frozen-sparsity
// assembler and operator, the injected coefficient fields, and the cycle
// work vectors (Config.Ndof components per node). The Assemble callback
// sees the exported fields; Scratch is its hook for per-level kernel
// workspace (allocated on first use, so warm refreshes stay
// allocation-free).
type Level struct {
	M *mesh.Mesh
	// Asm assembles the level's scalar operator (one dof per node); nil on
	// the fine level, whose operator comes from the stage.
	Asm *fem.Assembler
	// Mat is the level operator A, applied as A ⊗ I_Ndof.
	Mat     *la.BSRMat
	Coef    [][]float64
	Scratch any

	smoother   *la.PCBJacobiILU0
	bnd        []int32 // Dirichlet dof-rows (owned), nil unless BoundaryDirichlet
	x, b, r, t []float64
}

// PCGMG is a geometric multigrid V-cycle preconditioner over a Hierarchy,
// pluggable wherever the stage PCs go (la.PC, refreshed in place). The fine
// operator is the stage's own matrix (SetFineOperator); coarse operators
// are reassembled from injected coefficients on every Refresh. Apply runs
// a single V-cycle with fixed sweep counts and no inner reductions, so it
// is a fixed linear operator, collective-consistent at any rank count.
type PCGMG struct {
	h   *Hierarchy
	cfg Config
	lv  []*Level
}

// NewPCGMG builds the per-level state over an existing hierarchy.
// Collective (level mesh vector setup only — no communication).
//
// The pool parameter is deprecated and not read: it stays because
// benchmark/probes.go passes it, and every caller passes nil.
func NewPCGMG(h *Hierarchy, pool *par.Pool, cfg Config) *PCGMG {
	p := &PCGMG{h: h, cfg: cfg}
	for l, m := range h.Meshes {
		p.lv = append(p.lv, p.newLevel(l, m))
	}
	return p
}

// newLevel builds one rung's state against mesh m (l == 0: the fine level,
// whose coefficients alias the stage fields and whose operator the stage
// supplies).
func (p *PCGMG) newLevel(l int, m *mesh.Mesh) *Level {
	cfg := &p.cfg
	lvl := &Level{M: m}
	lvl.Coef = make([][]float64, len(cfg.Coefs))
	if l == 0 {
		for i, cf := range cfg.Coefs {
			lvl.Coef[i] = cf.Vec
		}
	} else {
		lvl.Asm = fem.NewAssembler(m, 1)
		for i, cf := range cfg.Coefs {
			lvl.Coef[i] = m.NewVec(cf.Ndof)
		}
	}
	lvl.bnd = levelBnd(m, cfg, nil)
	lvl.x = m.NewVec(cfg.Ndof)
	lvl.b = m.NewVec(cfg.Ndof)
	lvl.r = m.NewVec(cfg.Ndof)
	lvl.t = m.NewVec(cfg.Ndof)
	return lvl
}

// levelBnd collects the owned Dirichlet dof-rows of m into bnd (reusing its
// storage), or returns nil when the config has no Dirichlet walls.
func levelBnd(m *mesh.Mesh, cfg *Config, bnd []int32) []int32 {
	bnd = bnd[:0]
	if !cfg.BoundaryDirichlet {
		return nil
	}
	for i := 0; i < m.NumOwned; i++ {
		if m.OnBoundary(i) {
			for d := 0; d < cfg.Ndof; d++ {
				bnd = append(bnd, int32(i*cfg.Ndof+d))
			}
		}
	}
	return bnd
}

// Levels returns the number of grid levels the cycle runs over.
func (p *PCGMG) Levels() int { return len(p.lv) }

// Hierarchy returns the mesh ladder this preconditioner cycles over.
func (p *PCGMG) Hierarchy() *Hierarchy { return p.h }

// SetFineOperator points level 0 at the stage's assembled fine matrix,
// which applies to Config.Ndof interleaved components per node. Call
// before every Refresh; a changed operator object drops the fine smoother
// so it is rebuilt against the new matrix.
func (p *PCGMG) SetFineOperator(mat *la.BSRMat) {
	f := p.lv[0]
	if f.Mat != mat {
		f.Mat = mat
		f.smoother = nil
	}
}

// Rebind re-keys the preconditioner onto a refreshed hierarchy after an
// incremental remesh (h and res from RefreshHierarchy over the ladder this
// PC was built on), without reallocating what the refresh proved intact.
// Reused levels keep everything — assembler, operator, smoother, work
// vectors and kernel scratch. Patched levels repair their frozen-sparsity
// assembler through fem.Assembler.Rebind and resize their vectors; their
// smoother, like the fine level's, is dropped and built afresh by the next
// Refresh. Cold levels are rebuilt. coefs are the stage's (reallocated)
// fine-mesh coefficient fields. Call SetFineOperator + Refresh afterwards,
// as on every step. Collective.
func (p *PCGMG) Rebind(h *Hierarchy, res *RefreshResult, coefs []Coefficient, epoch uint64) {
	cfg := &p.cfg
	if len(coefs) != len(cfg.Coefs) {
		panic("mg: PCGMG.Rebind coefficient count mismatch")
	}
	cfg.Coefs = coefs
	old := p.lv
	lv := make([]*Level, 0, len(h.Meshes))
	for l, m := range h.Meshes {
		var st LevelState
		if res != nil && l < len(res.Levels) {
			st = res.Levels[l]
		}
		switch {
		case l == 0:
			f := old[0]
			f.M = m
			for i, cf := range cfg.Coefs {
				f.Coef[i] = cf.Vec
			}
			f.Mat, f.smoother = nil, nil
			f.bnd = levelBnd(m, cfg, f.bnd)
			f.x = m.NewVec(cfg.Ndof)
			f.b = m.NewVec(cfg.Ndof)
			f.r = m.NewVec(cfg.Ndof)
			f.t = m.NewVec(cfg.Ndof)
			lv = append(lv, f)
		case st.Reused && l < len(old):
			// Mesh object unchanged: operator values are refreshed (and the
			// smoother refactored) by the next Refresh as on any warm step.
			lv = append(lv, old[l])
		case st.Delta != nil && l < len(old) && old[l].Asm != nil:
			lvl := old[l]
			lvl.Asm.Rebind(m, epoch, st.Delta)
			lvl.M = m
			lvl.Mat = nil      // recreated from the patched plan by Refresh
			lvl.smoother = nil // and factored afresh on it
			lvl.Scratch = nil  // kernel closures captured the old mesh/coefs
			for i, cf := range cfg.Coefs {
				lvl.Coef[i] = m.NewVec(cf.Ndof)
			}
			lvl.bnd = levelBnd(m, cfg, lvl.bnd)
			lvl.x = m.NewVec(cfg.Ndof)
			lvl.b = m.NewVec(cfg.Ndof)
			lvl.r = m.NewVec(cfg.Ndof)
			lvl.t = m.NewVec(cfg.Ndof)
			lv = append(lv, lvl)
		default:
			lv = append(lv, p.newLevel(l, m))
		}
	}
	p.h = h
	p.lv = lv
}

// Refresh re-injects the coefficient fields down the ladder, reassembles
// every coarse-level operator in place through the warm assembly plan,
// and refactors the smoothers — the in-place refresh contract the other
// stage PCs follow. Collective; allocation-free once warm.
func (p *PCGMG) Refresh() {
	for l := 1; l < len(p.lv); l++ {
		fine, lvl := p.lv[l-1], p.lv[l]
		for i, cf := range p.cfg.Coefs {
			p.h.Down[l].Eval(fine.Coef[i], cf.Ndof, lvl.Coef[i], false)
			lvl.M.GhostRead(lvl.Coef[i], cf.Ndof)
		}
	}
	for l := 1; l < len(p.lv); l++ {
		lvl := p.lv[l]
		if lvl.Mat == nil {
			lvl.Mat = lvl.Asm.NewMatrix(fem.LayoutAIJ)
			lvl.Mat.SetComps(p.cfg.Ndof)
		} else {
			lvl.Mat.Zero()
		}
		p.cfg.Assemble(lvl)
		refreshSmoother(lvl)
	}
	refreshSmoother(p.lv[0])
}

// refreshSmoother factors the level's ILU(0) smoother on its operator —
// the scalar A, swept on every component — afresh when Rebind or
// SetFineOperator dropped it, in place otherwise.
func refreshSmoother(lvl *Level) {
	if lvl.smoother == nil {
		lvl.smoother = la.NewPCBJacobiILU0(lvl.Mat)
		return
	}
	lvl.smoother.Refresh()
}

// Apply runs one V-cycle on r, writing the correction to z (owned
// segments, as the KSP passes them). Collective.
func (p *PCGMG) Apply(r, z []float64) {
	lv := p.lv
	L := len(lv)
	ndof := p.cfg.Ndof
	f := lv[0]
	n0 := f.M.NumOwned * ndof
	copy(f.b[:n0], r[:n0])
	for l := 0; l < L-1; l++ {
		lvl := lv[l]
		zero(lvl.x)
		p.smooth(lvl, preSweeps, true)
		n := lvl.M.NumOwned * ndof
		lvl.Mat.Apply(lvl.x, lvl.t)
		for i := 0; i < n; i++ {
			lvl.r[i] = lvl.b[i] - lvl.t[i]
		}
		maskRows(lvl.r, lvl.bnd)
		next := lv[l+1]
		p.h.Up[l+1].Restrict(lvl.r, ndof, next.b)
		maskRows(next.b, next.bnd)
	}
	last := lv[L-1]
	zero(last.x)
	p.smooth(last, coarseSweeps, true)
	for l := L - 2; l >= 0; l-- {
		lvl, next := lv[l], lv[l+1]
		p.h.Up[l+1].Eval(next.x, ndof, lvl.t, false)
		maskRows(lvl.t, lvl.bnd)
		n := lvl.M.NumOwned * ndof
		for i := 0; i < n; i++ {
			lvl.x[i] += lvl.t[i]
		}
		p.smooth(lvl, postSweeps, false)
	}
	copy(z[:n0], f.x[:n0])
}

// smooth runs relaxation sweeps x += M⁻¹ (b - A x) on one level.
// xZero skips the first residual SpMV when x is known to be zero (the
// skip is taken uniformly on every rank, keeping the collective schedule
// aligned).
func (p *PCGMG) smooth(lvl *Level, sweeps int, xZero bool) {
	n := lvl.M.NumOwned * p.cfg.Ndof
	for s := 0; s < sweeps; s++ {
		if s == 0 && xZero {
			copy(lvl.r[:n], lvl.b[:n])
		} else {
			lvl.Mat.Apply(lvl.x, lvl.t)
			for i := 0; i < n; i++ {
				lvl.r[i] = lvl.b[i] - lvl.t[i]
			}
		}
		lvl.smoother.Apply(lvl.r[:n], lvl.t[:n])
		for i := 0; i < n; i++ {
			lvl.x[i] += lvl.t[i]
		}
	}
}

func maskRows(v []float64, rows []int32) {
	for _, r := range rows {
		v[r] = 0
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
