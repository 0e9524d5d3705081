package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"proteus/internal/chns"
	"proteus/internal/mesh"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// ckptTestConfig is a small 2D rising-bubble configuration exercising
// all four solve stages plus remeshing every second step.
func ckptTestConfig() Config {
	p := chns.DefaultParams()
	p.Cn = 0.08
	p.Fr = 0.3
	p.RhoMinus = 0.1
	p.We = 50
	return Config{
		Dim: 2, Params: p, Opt: chns.DefaultOptions(1e-3),
		BulkLevel: 2, InterfaceLevel: 4, RemeshEvery: 2,
	}
}

func ckptTestPhi0(cn float64) func(x, y, z float64) float64 {
	return func(x, y, z float64) float64 {
		return chns.EquilibriumProfile(math.Hypot(x-0.5, y-0.3)-0.15, cn)
	}
}

// nodeRec is one owned node's key and packed 2D field values
// (φ, μ, vx, vy, p); elemRec one element's octant and Cahn number.
type nodeRec struct {
	K mesh.NodeKey
	V [5]float64
}
type elemRec struct {
	O  sfc.Octant
	Cn float64
}

// globalState is the partition-independent canonical state of a 2D
// simulation: owned nodes sorted by key, elements in global SFC order,
// plus the Describe summary.
type globalState struct {
	nodes []nodeRec
	elems []elemRec
	desc  string
	step  int
	time  float64
}

// gatherState collects the canonical global state on rank 0 (nil on the
// other ranks). Collective.
func gatherState(s *Simulation) *globalState {
	m := s.Mesh
	sol := s.Solver
	nl := make([]nodeRec, m.NumOwned)
	for i := 0; i < m.NumOwned; i++ {
		nl[i] = nodeRec{K: m.Keys[i], V: [5]float64{
			sol.PhiMu[2*i], sol.PhiMu[2*i+1], sol.Vel[2*i], sol.Vel[2*i+1], sol.P[i]}}
	}
	el := make([]elemRec, m.NumElems())
	for e := range el {
		el[e] = elemRec{O: m.Elems[e], Cn: sol.ElemCn[e]}
	}
	desc := s.Describe()
	nodes := par.Gatherv(s.Comm, 0, nl)
	elems := par.Gatherv(s.Comm, 0, el)
	if s.Comm.Rank() != 0 {
		return nil
	}
	g := &globalState{desc: desc, step: s.StepIndex, time: s.Time}
	for _, b := range nodes {
		g.nodes = append(g.nodes, b...)
	}
	for _, b := range elems {
		g.elems = append(g.elems, b...)
	}
	sort.Slice(g.nodes, func(i, j int) bool {
		a, b := g.nodes[i].K, g.nodes[j].K
		if a.Z != b.Z {
			return a.Z < b.Z
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return g
}

func sameState(what string, want, got *globalState) error {
	if want.desc != got.desc {
		return fmt.Errorf("%s: Describe %q != %q", what, got.desc, want.desc)
	}
	if want.step != got.step || want.time != got.time {
		return fmt.Errorf("%s: step/time (%d, %v) != (%d, %v)", what, got.step, got.time, want.step, want.time)
	}
	if len(want.nodes) != len(got.nodes) || len(want.elems) != len(got.elems) {
		return fmt.Errorf("%s: %d/%d nodes, %d/%d elems", what,
			len(got.nodes), len(want.nodes), len(got.elems), len(want.elems))
	}
	for i := range want.nodes {
		if want.nodes[i] != got.nodes[i] {
			return fmt.Errorf("%s: node %d (%v) not bitwise equal: %v vs %v",
				what, i, want.nodes[i].K, got.nodes[i].V, want.nodes[i].V)
		}
	}
	for i := range want.elems {
		if !want.elems[i].O.EqualKey(got.elems[i].O) || want.elems[i].Cn != got.elems[i].Cn {
			return fmt.Errorf("%s: elem %d not bitwise equal", what, i)
		}
	}
	return nil
}

// TestCheckpointRestartBitwiseSameRanks checks the headline contract: a
// run of N steps equals a run of K steps + checkpoint + restart of N−K
// steps, bitwise in every field and identical in Describe, at 1, 2 and
// 4 ranks. K is chosen so the restart
// immediately crosses a remesh.
func TestCheckpointRestartBitwiseSameRanks(t *testing.T) {
	const N, K = 5, 2
	cfg := ckptTestConfig()
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	for _, p := range []int{1, 2, 4} {
		base := t.TempDir() + "/ck"
		var want, got *globalState
		par.Run(p, func(c *par.Comm) {
			sim := New(c, cfg, phi0)
			sim.Run(N)
			if g := gatherState(sim); g != nil {
				want = g
			}
		})
		par.Run(p, func(c *par.Comm) {
			sim := New(c, cfg, phi0)
			sim.Run(K)
			if err := sim.Checkpoint(base); err != nil {
				panic(err)
			}
		})
		par.Run(p, func(c *par.Comm) {
			sim, err := Restore(c, cfg, base)
			if err != nil {
				panic(err)
			}
			if sim.StepIndex != K {
				panic(fmt.Sprintf("restored step %d, want %d", sim.StepIndex, K))
			}
			sim.Run(N - K)
			if g := gatherState(sim); g != nil {
				got = g
			}
		})
		if err := sameState(fmt.Sprintf("p=%d", p), want, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreBitwiseAcrossRankCounts checks rank-count portability: a
// snapshot written at any of 1, 2 or 4 ranks restores to the bitwise
// identical global state at any of 1, 2 or 4 ranks (the trajectory that
// follows is deterministic per rank count; cross-count reduction
// grouping differs, as in any MPI code — the state handoff itself is
// exact). The restored run must also keep stepping.
func TestRestoreBitwiseAcrossRankCounts(t *testing.T) {
	const K = 3 // crosses one adaptation round
	cfg := ckptTestConfig()
	phi0 := ckptTestPhi0(cfg.Params.Cn)
	for _, pw := range []int{1, 2, 4} {
		base := t.TempDir() + fmt.Sprintf("/ck%d", pw)
		var want *globalState
		par.Run(pw, func(c *par.Comm) {
			sim := New(c, cfg, phi0)
			sim.Run(K)
			if err := sim.Checkpoint(base); err != nil {
				panic(err)
			}
			if g := gatherState(sim); g != nil {
				want = g
			}
		})
		for _, pr := range []int{1, 2, 4} {
			var got *globalState
			par.Run(pr, func(c *par.Comm) {
				sim, err := Restore(c, cfg, base)
				if err != nil {
					panic(err)
				}
				if g := gatherState(sim); g != nil {
					got = g
				}
				sim.Step() // the restored simulation must be steppable
			})
			if err := sameState(fmt.Sprintf("write@%d restore@%d", pw, pr), want, got); err != nil {
				t.Fatal(err)
			}
		}
	}
}
