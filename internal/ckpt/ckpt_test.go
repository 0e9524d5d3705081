package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"
	"time"

	"proteus/internal/fault"
	"proteus/internal/mesh"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// fields2D is the nodal field list of a 2D run without warm starts
// (φμ, u, p); warmFields adds a 3D-like list of four fields.
var (
	fields2D   = []int{2, 2, 1}
	warmFields = []int{2, 3, 1, 1}
)

// addNodes appends three owned nodes with rank-tagged keys and one
// rank-tagged value array per field of the given widths.
func addNodes(loc *Local, rank int, dofs []int) {
	if loc.Nodal == nil {
		loc.Nodal = make([][]float64, len(dofs))
	}
	for i := 0; i < 3; i++ {
		loc.Keys = append(loc.Keys, mesh.NodeKey{X: uint32(rank*10 + i), Y: uint32(i), Z: 0})
		for f, d := range dofs {
			for k := 0; k < d; k++ {
				loc.Nodal[f] = append(loc.Nodal[f], float64(rank)+0.1*float64(f)+1e-2*float64(i)-1e-3*float64(k))
			}
		}
	}
}

// synthLocal fabricates one rank's snapshot share: two level-1 quadrants
// per rank (globally SFC-ordered when ranks are taken in order) and three
// nodes with rank-tagged field values.
func synthLocal(rank int, dofs []int) *Local {
	root := sfc.Root(2)
	loc := &Local{}
	for c := 0; c < 2; c++ {
		loc.Elems = append(loc.Elems, root.Child(2*rank+c))
		loc.ElemCn = append(loc.ElemCn, float64(100*rank+c))
	}
	addNodes(loc, rank, dofs)
	return loc
}

func sameLocal(a, b *Local) error {
	if len(a.Elems) != len(b.Elems) || len(a.Keys) != len(b.Keys) || len(a.Nodal) != len(b.Nodal) {
		return fmt.Errorf("size mismatch: %d/%d elems, %d/%d keys, %d/%d fields",
			len(a.Elems), len(b.Elems), len(a.Keys), len(b.Keys), len(a.Nodal), len(b.Nodal))
	}
	for i := range a.Elems {
		if !a.Elems[i].EqualKey(b.Elems[i]) || a.ElemCn[i] != b.ElemCn[i] {
			return fmt.Errorf("elem %d differs", i)
		}
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return fmt.Errorf("node %d differs", i)
		}
	}
	for f := range a.Nodal {
		if len(a.Nodal[f]) != len(b.Nodal[f]) {
			return fmt.Errorf("field %d: %d/%d values", f, len(a.Nodal[f]), len(b.Nodal[f]))
		}
		for i := range a.Nodal[f] {
			if a.Nodal[f][i] != b.Nodal[f][i] {
				return fmt.Errorf("field %d value %d differs", f, i)
			}
		}
	}
	return nil
}

// concatLocals gathers every rank's share to rank 0 in rank order.
func concatLocals(c *par.Comm, loc *Local) *Local {
	type share struct{ L Local }
	all := par.Gatherv(c, 0, []share{{*loc}})
	if c.Rank() != 0 {
		return nil
	}
	out := &Local{Nodal: make([][]float64, len(loc.Nodal))}
	for _, batch := range all {
		for _, s := range batch {
			out.Elems = append(out.Elems, s.L.Elems...)
			out.ElemCn = append(out.ElemCn, s.L.ElemCn...)
			out.Keys = append(out.Keys, s.L.Keys...)
			for f := range out.Nodal {
				out.Nodal[f] = append(out.Nodal[f], s.L.Nodal[f]...)
			}
		}
	}
	return out
}

// TestRoundTripAcrossRankCounts writes a snapshot at 2 ranks and reads
// it back at 1, 2 and 4 ranks: the global concatenation (rank order)
// must reproduce the written records bitwise, and the meta must survive
// the JSON round trip.
func TestRoundTripAcrossRankCounts(t *testing.T) {
	for _, dofs := range [][]int{fields2D, warmFields} {
		base := t.TempDir() + "/snap"
		meta := Meta{
			Scenario: "bubble", Preset: "smoke", Dim: 2,
			Step: 7, Time: 0.007, RemeshCount: 3, NodalDofs: dofs,
			GlobalElems: 4, GlobalDofs: 6,
		}
		meta.Timers.CH.Total = 123 * time.Millisecond
		meta.Timers.CH.Iterations = 42
		meta.Timers.RemeshStages.Rounds = 5

		var want *Local
		par.Run(2, func(c *par.Comm) {
			loc := synthLocal(c.Rank(), dofs)
			if w := concatLocals(c, loc); w != nil {
				want = w
			}
			if err := Write(c, base, meta, loc); err != nil {
				panic(err)
			}
		})

		got, err := ReadMeta(base)
		if err != nil {
			t.Fatalf("ReadMeta: %v", err)
		}
		if got.Version != Version || got.Scenario != "bubble" || got.Preset != "smoke" ||
			got.Ranks != 2 || got.Step != 7 || got.Time != 0.007 || got.RemeshCount != 3 ||
			fmt.Sprint(got.NodalDofs) != fmt.Sprint(dofs) {
			t.Fatalf("meta did not round-trip: %+v", got)
		}
		if got.Timers.CH.Total != 123*time.Millisecond || got.Timers.CH.Iterations != 42 ||
			got.Timers.RemeshStages.Rounds != 5 {
			t.Fatalf("timers did not round-trip: %+v", got.Timers)
		}

		for _, p := range []int{1, 2, 4} {
			var back *Local
			par.Run(p, func(c *par.Comm) {
				loc, err := Read(c, base, got)
				if err != nil {
					panic(err)
				}
				if b := concatLocals(c, loc); b != nil {
					back = b
				}
			})
			if err := sameLocal(want, back); err != nil {
				t.Fatalf("fields %v read at %d ranks: %v", dofs, p, err)
			}
		}
	}
}

// TestVersionAndCorruptionRejected checks that a future-format meta, a
// version-2 meta and rank file (the fixed φμ, u, p layout, which has no
// reader) and a corrupted rank file all fail loudly.
func TestVersionAndCorruptionRejected(t *testing.T) {
	base := t.TempDir() + "/snap"
	meta := Meta{Dim: 2, Step: 1, NodalDofs: fields2D}
	par.Run(1, func(c *par.Comm) {
		if err := Write(c, base, meta, synthLocal(0, fields2D)); err != nil {
			panic(err)
		}
	})
	good, err := ReadMeta(base)
	if err != nil {
		t.Fatalf("ReadMeta: %v", err)
	}

	mb, _ := os.ReadFile(metaPath(base))
	for _, v := range []int{99, 2} {
		bad := strings.Replace(string(mb), fmt.Sprintf("\"version\": %d", Version), fmt.Sprintf("\"version\": %d", v), 1)
		if err := os.WriteFile(metaPath(base), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMeta(base); err == nil {
			t.Fatalf("version-%d meta accepted", v)
		}
	}
	os.WriteFile(metaPath(base), mb, 0o644)

	// A version-2 rank file with a valid trailer: only the version word
	// tells it apart, and that alone must reject it.
	rb, _ := os.ReadFile(rankPath(base, 0))
	v2 := append([]byte(nil), rb...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	binary.LittleEndian.PutUint32(v2[len(v2)-4:], crc32.ChecksumIEEE(v2[:len(v2)-4]))
	os.WriteFile(rankPath(base, 0), v2, 0o644)
	par.Run(1, func(c *par.Comm) {
		if _, err := Read(c, base, good); err == nil || !strings.Contains(err.Error(), "format version 2") {
			panic(fmt.Sprintf("version-2 rank file: got %v, want a format-version error", err))
		}
	})

	rb[0] ^= 0xff // break the magic
	os.WriteFile(rankPath(base, 0), rb, 0o644)
	par.Run(1, func(c *par.Comm) {
		if _, err := Read(c, base, good); err == nil {
			panic("corrupted rank file accepted")
		}
	})
}

// writeGen writes one synthetic snapshot generation at the given step
// and rank count (up to 4 ranks in 2D: two level-2 quadrants per rank,
// SFC-ordered across ranks taken in order).
func writeGen(t *testing.T, base string, step, ranks int) {
	t.Helper()
	par.Run(ranks, func(c *par.Comm) {
		root := sfc.Root(2)
		loc := &Local{}
		for ch := 0; ch < 2; ch++ {
			loc.Elems = append(loc.Elems, root.Child(c.Rank()).Child(ch))
			loc.ElemCn = append(loc.ElemCn, float64(100*c.Rank()+ch))
		}
		addNodes(loc, c.Rank(), fields2D)
		meta := Meta{Dim: 2, Step: step, Time: float64(step) * 1e-3, NodalDofs: fields2D}
		if err := Write(c, GenBase(base, step), meta, loc); err != nil {
			panic(err)
		}
	})
}

// TestGenerationsAndRotate checks the generation listing order and that
// Rotate prunes oldest-first, meta and rank files both.
func TestGenerationsAndRotate(t *testing.T) {
	base := t.TempDir() + "/ck"
	for _, step := range []int{2, 4, 6, 8, 10} {
		writeGen(t, base, step, 2)
	}
	gens := Generations(base)
	if len(gens) != 5 {
		t.Fatalf("listed %d generations, want 5", len(gens))
	}
	for i, step := range []int{2, 4, 6, 8, 10} {
		if gens[i] != GenBase(base, step) {
			t.Fatalf("generation %d is %s, want %s (oldest first)", i, gens[i], GenBase(base, step))
		}
	}
	if err := Rotate(base, 2); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	gens = Generations(base)
	if len(gens) != 2 || gens[0] != GenBase(base, 8) || gens[1] != GenBase(base, 10) {
		t.Fatalf("after Rotate(2): %v", gens)
	}
	// The pruned generations' rank files are gone too, not just the metas.
	for _, step := range []int{2, 4, 6} {
		for r := 0; r < 2; r++ {
			if _, err := os.Stat(rankPath(GenBase(base, step), r)); err == nil {
				t.Errorf("rotated generation g%d left rank file %d behind", step, r)
			}
		}
	}
	if err := Rotate(base, 0); err != nil || len(Generations(base)) != 2 {
		t.Fatalf("Rotate(0) must keep everything: %v %v", err, Generations(base))
	}
}

// TestReadLatestGoodFallsBack corrupts the newest generation in the ways
// a real crash or disk fault would — truncation mid-payload, a flipped
// payload byte, a deleted meta — and checks that ReadLatestGood lands on
// the previous intact generation and that the resolved snapshot reads
// back cleanly at 1, 2 and 4 ranks.
func TestReadLatestGoodFallsBack(t *testing.T) {
	corruptions := []struct {
		name string
		do   func(t *testing.T, gen string)
	}{
		{"truncate-mid-payload", func(t *testing.T, gen string) {
			p := rankPath(gen, 0)
			st, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(p, st.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"flip-payload-byte", func(t *testing.T, gen string) {
			p := rankPath(gen, 0)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x40
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete-meta", func(t *testing.T, gen string) {
			if err := os.Remove(metaPath(gen)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, writerRanks := range []int{1, 2, 4} {
		for _, cr := range corruptions {
			t.Run(fmt.Sprintf("%dranks/%s", writerRanks, cr.name), func(t *testing.T) {
				base := t.TempDir() + "/ck"
				writeGen(t, base, 3, writerRanks)
				writeGen(t, base, 6, writerRanks)
				cr.do(t, GenBase(base, 6))
				meta, rb, err := ReadLatestGood(base)
				if err != nil {
					t.Fatalf("ReadLatestGood: %v", err)
				}
				if meta.Step != 3 || rb != GenBase(base, 3) {
					t.Fatalf("resolved to %s (step %d), want the intact step-3 generation", rb, meta.Step)
				}
				par.Run(writerRanks, func(c *par.Comm) {
					if _, err := Read(c, rb, meta); err != nil {
						panic(err)
					}
				})
			})
		}
	}
}

// TestReadLatestGoodAllCorrupt checks the terminal error when every
// generation is broken.
func TestReadLatestGoodAllCorrupt(t *testing.T) {
	base := t.TempDir() + "/ck"
	if _, _, err := ReadLatestGood(base); err == nil {
		t.Fatal("empty base resolved")
	}
	writeGen(t, base, 2, 1)
	if err := os.Truncate(rankPath(GenBase(base, 2), 0), 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLatestGood(base); err == nil {
		t.Fatal("all-corrupt base resolved")
	}
}

// TestMetaCRCCatchesSwappedRankFile builds two internally consistent
// snapshots with identical headers but different payloads, then swaps a
// rank file between them: the file's own CRC trailer still matches its
// contents, so only the meta's CRC list can catch the mix-up.
func TestMetaCRCCatchesSwappedRankFile(t *testing.T) {
	dir := t.TempDir()
	a, b := dir+"/a", dir+"/b"
	par.Run(1, func(c *par.Comm) {
		la, lb := synthLocal(0, fields2D), synthLocal(0, fields2D)
		lb.Nodal[2][0] += 0.5 // same shape, different payload
		meta := Meta{Dim: 2, Step: 4, NodalDofs: fields2D}
		if err := Write(c, a, meta, la); err != nil {
			panic(err)
		}
		if err := Write(c, b, meta, lb); err != nil {
			panic(err)
		}
	})
	rb, err := os.ReadFile(rankPath(b, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rankPath(a, 0), rb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(a); err == nil {
		t.Fatal("swapped-in rank file with a self-consistent CRC accepted")
	}
}

// TestInjectedTruncationIsTornWrite drives the CkptTruncate fault point
// through Write and checks the result is exactly a torn write: the
// generation publishes, but Verify rejects it and ReadLatestGood walks
// back to the previous one.
func TestInjectedTruncationIsTornWrite(t *testing.T) {
	base := t.TempDir() + "/ck"
	writeGen(t, base, 2, 2)
	par.Run(2, func(c *par.Comm) {
		inj := fault.New(1, c.Rank(), fault.Fault{Point: fault.CkptTruncate, Step: 1, Rank: 1})
		meta := Meta{Dim: 2, Step: 4, NodalDofs: fields2D}
		if err := Write(c, GenBase(base, 4), meta, synthLocal(c.Rank(), fields2D), inj); err != nil {
			panic(err)
		}
	})
	if len(Generations(base)) != 2 {
		t.Fatalf("truncated write did not publish a generation: %v", Generations(base))
	}
	if _, err := Verify(GenBase(base, 4)); err == nil {
		t.Fatal("truncated generation passed Verify")
	}
	meta, rb, err := ReadLatestGood(base)
	if err != nil || meta.Step != 2 || rb != GenBase(base, 2) {
		t.Fatalf("fallback resolved %s (step %d, err %v), want the step-2 generation", rb, meta.Step, err)
	}
}
