// Package ckpt implements parallel checkpoint/restart for long adaptive
// runs: a versioned binary snapshot of the distributed forest (octant
// keys per rank), the elemental Cahn numbers, the owned node keys with
// one array per nodal field — whatever list the writer says a state is,
// each field's dofs per node in the meta — the step index, physical time
// and accumulated timers.
// Snapshots are written one binary file per rank plus a JSON meta file,
// and can be read back at a *different* rank count: each restoring rank
// reads a contiguous block of the per-rank files, so the concatenation
// across ranks reproduces the global SFC order and the records can be
// replayed through the key-addressed bitwise migration path
// (transfer.MigrateKeyedNodal / transfer.MigrateElem) onto the restart
// partition. Field values survive the round trip bitwise.
//
// Integrity: every rank file ends in a CRC32 (IEEE) trailer over its
// full contents, the meta records each rank file's CRC, and all files
// are fsynced before the rename that publishes them — so torn, truncated
// or bit-flipped snapshots are detected on read instead of silently
// restoring garbage. Long runs keep a bounded history of snapshot
// generations (GenBase/Rotate) and recover through ReadLatestGood, which
// walks the generations newest-to-oldest past any corrupt one.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"proteus/internal/chns"
	"proteus/internal/fault"
	"proteus/internal/mesh"
	"proteus/internal/par"
	"proteus/internal/sfc"
)

// Version is the snapshot format version stamped into every rank file and
// the meta file. Readers reject other versions. Version 2 added the
// per-rank CRC32 trailer and the meta CRC list; version 3 made the nodal
// field list the writer's (Meta.NodalDofs) instead of a fixed φμ, u, p.
const Version = 3

// magic identifies a proteus checkpoint rank file.
var magic = [4]byte{'P', 'C', 'K', 'P'}

// Meta is the global, rank-count-independent description of a snapshot,
// written as JSON next to the rank files. Scenario and Preset let a
// driver rebuild the (non-serializable) Config through the scenario
// registry before restoring.
type Meta struct {
	Version  int     `json:"version"`
	Scenario string  `json:"scenario,omitempty"`
	Preset   string  `json:"preset,omitempty"`
	Ranks    int     `json:"ranks"`
	Dim      int     `json:"dim"`
	Step     int     `json:"step"`
	Time     float64 `json:"time"`
	// LocalCahn records the *effective* detection setting of the writing
	// run (the scenario default possibly overridden by -localcahn), so a
	// restart reproduces the physics rather than the registry default.
	LocalCahn   bool  `json:"local_cahn"`
	RemeshCount int   `json:"remesh_count"`
	GlobalElems int64 `json:"global_elems"`
	GlobalDofs  int64 `json:"global_dofs"`
	NodalDofs   []int `json:"nodal_dofs"` // dofs per node of each Local.Nodal field
	// RankCRCs are the CRC32 (IEEE) trailers of the rank files indexed by
	// writer rank. A reader cross-checks them against each file's own
	// trailer, so a rank file swapped in from another generation fails
	// loudly even though it is internally consistent.
	RankCRCs []uint32 `json:"rank_crcs,omitempty"`
	// Timers are the accumulated stage timers at checkpoint time, restored
	// so a resumed run keeps meaningful cumulative Fig. 7 accounting.
	Timers chns.Timers `json:"timers"`
}

// Local is one rank's slice of a snapshot: its contiguous SFC range of
// leaves with the elemental Cahn numbers, and its owned nodes (keys plus
// one array per nodal field, owned segment only — ghosts are re-derived
// on restore). Nodal[i] holds Meta.NodalDofs[i] values per key.
type Local struct {
	Elems  []sfc.Octant
	ElemCn []float64
	Keys   []mesh.NodeKey
	Nodal  [][]float64
}

func metaPath(base string) string { return base + ".meta.json" }

func rankPath(base string, r int) string {
	return fmt.Sprintf("%s_r%04d.ck", base, r)
}

// GenBase returns the per-generation base path of a snapshot at the given
// absolute step: base-g000000042. The zero-padded decimal step makes the
// lexicographic order of generation paths the chronological order.
func GenBase(base string, step int) string {
	return fmt.Sprintf("%s-g%09d", base, step)
}

// Generations lists the generation base paths recorded under base,
// oldest first. Only generations with a published meta file count — a
// crash mid-write leaves rank .tmp files but never a meta, so unpublished
// partial writes are invisible here.
func Generations(base string) []string {
	ms, _ := filepath.Glob(base + "-g*.meta.json")
	sort.Strings(ms)
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, strings.TrimSuffix(m, ".meta.json"))
	}
	return out
}

// Rotate deletes the oldest generations under base until at most retain
// remain (retain <= 0 keeps everything). The meta file goes first, so an
// interrupted rotation can only leave unpublished rank files behind,
// never a published meta naming missing ones. Call from one rank.
func Rotate(base string, retain int) error {
	if retain <= 0 {
		return nil
	}
	gens := Generations(base)
	var firstErr error
	for len(gens) > retain {
		g := gens[0]
		gens = gens[1:]
		meta, metaErr := ReadMeta(g)
		if err := os.Remove(metaPath(g)); err != nil && firstErr == nil {
			firstErr = err
		}
		if metaErr == nil {
			for r := 0; r < meta.Ranks; r++ {
				if err := os.Remove(rankPath(g, r)); err != nil && !os.IsNotExist(err) && firstErr == nil {
					firstErr = err
				}
			}
		} else {
			// Unreadable meta (e.g. an injected corruption): sweep whatever
			// rank files match the generation's pattern instead.
			rfs, _ := filepath.Glob(g + "_r*.ck")
			for _, rf := range rfs {
				if err := os.Remove(rf); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// Verify checks a snapshot's integrity without building a mesh and
// returns its meta: the meta parses, and every rank file it names passes
// the magic/header/step/CRC checks. Call from one rank.
func Verify(base string) (Meta, error) {
	meta, err := ReadMeta(base)
	for r := 0; err == nil && r < meta.Ranks; r++ {
		_, err = readRank(rankPath(base, r), meta, r)
	}
	return meta, err
}

// ReadLatestGood resolves base to the newest intact snapshot and returns
// its meta together with the resolved base path to pass to Read. The
// literal base is preferred when it has a meta file (the pre-generation
// single-snapshot layout); otherwise the generations under base are
// tried newest-to-oldest, skipping any that fail Verify — the recovery
// path past a corrupt or truncated latest checkpoint. Call from one rank
// and broadcast the result.
func ReadLatestGood(base string) (Meta, string, error) {
	if _, err := os.Stat(metaPath(base)); err == nil {
		if meta, err := Verify(base); err == nil {
			return meta, base, nil
		}
	}
	gens := Generations(base)
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		meta, err := Verify(gens[i])
		if err == nil {
			return meta, gens[i], nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return Meta{}, "", fmt.Errorf("ckpt: no intact snapshot under %s (last error: %w)", base, lastErr)
	}
	return Meta{}, "", fmt.Errorf("ckpt: no snapshot found under %s", base)
}

// Write dumps the snapshot under path base: one binary file per rank and
// the meta JSON from rank 0. Every file is written to a temporary path,
// fsynced, and renamed into place only after all ranks report success
// (meta last), so a crash or error mid-write leaves any previous
// snapshot at base intact and restartable. The error result is
// collective-consistent (all ranks agree on success or failure). The
// optional injector drives the CkptTruncate fault point: a firing
// truncates this rank's synced temporary file before the rename, so the
// published snapshot is corrupt in exactly the way a torn write would
// be. Collective.
func Write(c *par.Comm, base string, meta Meta, loc *Local, inj ...*fault.Injector) error {
	meta.Version = Version
	meta.Ranks = c.Size()
	rp, mp := rankPath(base, c.Rank()), metaPath(base)
	var err error
	if dir := filepath.Dir(base); dir != "." && dir != "" {
		err = os.MkdirAll(dir, 0o755)
	}
	var crc uint32
	if err == nil {
		crc, err = writeRank(rp+".tmp", meta, c.Rank(), loc)
	}
	// The CRC list is global meta state: gather every rank's trailer to
	// the meta writer. The gather doubles as the pre-publish barrier.
	crcs := par.Gather(c, 0, crc)
	if err == nil && c.Rank() == 0 {
		meta.RankCRCs = crcs
		err = writeMeta(mp+".tmp", meta)
	}
	fail := func(err error) error {
		if rerr := os.Remove(rp + ".tmp"); rerr != nil && !os.IsNotExist(rerr) {
			err = fmt.Errorf("%w (and removing %s.tmp failed: %v)", err, rp, rerr)
		}
		if c.Rank() == 0 {
			if rerr := os.Remove(mp + ".tmp"); rerr != nil && !os.IsNotExist(rerr) {
				err = fmt.Errorf("%w (and removing %s.tmp failed: %v)", err, mp, rerr)
			}
		}
		return fmt.Errorf("ckpt: write %s: %w", base, err)
	}
	if err := agree(c, err, "write"); err != nil {
		return fail(err)
	}
	// Fault point: corrupt the fully written, synced temporary file so
	// the rename publishes a truncated rank file whose CRC cannot match.
	for _, in := range inj {
		if in.Fire(fault.CkptTruncate, "") {
			if st, serr := os.Stat(rp + ".tmp"); serr == nil {
				os.Truncate(rp+".tmp", st.Size()/2)
			}
		}
	}
	err = os.Rename(rp+".tmp", rp)
	if err := agree(c, err, "rename"); err != nil {
		return fail(err)
	}
	// All rank files are in place; committing the meta publishes the
	// snapshot (a reader pairs meta with exactly the rank files it names).
	if c.Rank() == 0 {
		err = os.Rename(mp+".tmp", mp)
	}
	if err := agree(c, err, "meta rename"); err != nil {
		return fail(err)
	}
	if c.Rank() == 0 {
		syncDir(filepath.Dir(base))
	}
	return nil
}

// agree makes a per-rank error collective: every rank fails if any rank
// did, with its own error or one naming what failed on a peer.
// Collective.
func agree(c *par.Comm, err error, what string) error {
	if par.Allreduce(c, err != nil, func(a, b bool) bool { return a || b }) && err == nil {
		return fmt.Errorf("%s failed on a peer rank", what)
	}
	return err
}

// syncDir fsyncs a directory so the renames within it are durable;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if dir == "" {
		dir = "."
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func writeMeta(path string, meta Meta) error {
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadMeta loads the snapshot description. Callable before any par.Run —
// drivers use it to pick the scenario and rank count for the restart.
func ReadMeta(base string) (Meta, error) {
	var m Meta
	b, err := os.ReadFile(metaPath(base))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("ckpt: meta %s: %w", metaPath(base), err)
	}
	if m.Version != Version {
		return m, fmt.Errorf("ckpt: %s is format version %d, want %d", base, m.Version, Version)
	}
	return m, nil
}

// writeRank serializes one rank's snapshot slice and returns the CRC32
// trailer it stamped. The file is fsynced before returning, so a
// successful return means the bytes are durable at path.
func writeRank(path string, meta Meta, rank int, loc *Local) (uint32, error) {
	dim := meta.Dim
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	crc := crc32.NewIEEE()
	w := io.MultiWriter(bw, crc)
	le := binary.LittleEndian
	if _, err := w.Write(magic[:]); err != nil {
		return 0, err
	}
	hdr := []uint32{Version, uint32(dim), uint32(rank), uint32(meta.Ranks), uint32(meta.Step)}
	if err := binary.Write(w, le, hdr); err != nil {
		return 0, err
	}
	ne, nn := len(loc.Elems), len(loc.Keys)
	if len(loc.ElemCn) != ne || len(loc.Nodal) != len(meta.NodalDofs) {
		return 0, fmt.Errorf("ckpt: local snapshot holds %d elems, %d Cahn numbers, %d nodal fields for widths %v",
			ne, len(loc.ElemCn), len(loc.Nodal), meta.NodalDofs)
	}
	if err := binary.Write(w, le, []uint64{uint64(ne), uint64(nn)}); err != nil {
		return 0, err
	}
	ex := make([]uint32, 3*ne)
	lv := make([]uint8, ne)
	for i, o := range loc.Elems {
		ex[3*i], ex[3*i+1], ex[3*i+2] = o.X, o.Y, o.Z
		lv[i] = o.Level
	}
	kx := make([]uint32, 3*nn)
	for i, k := range loc.Keys {
		kx[3*i], kx[3*i+1], kx[3*i+2] = k.X, k.Y, k.Z
	}
	parts := []any{ex, lv, loc.ElemCn, kx}
	for i, f := range loc.Nodal {
		if len(f) != meta.NodalDofs[i]*nn {
			return 0, fmt.Errorf("ckpt: nodal field %d holds %d values for %d nodes at %d dofs", i, len(f), nn, meta.NodalDofs[i])
		}
		parts = append(parts, f)
	}
	for _, part := range parts {
		if err := binary.Write(w, le, part); err != nil {
			return 0, err
		}
	}
	// The trailer is the CRC of everything before it (written to the file
	// only, not folded into itself).
	sum := crc.Sum32()
	if err := binary.Write(bw, le, sum); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return sum, nil
}

// readRank parses and integrity-checks one rank file: magic, version,
// dim/ranks/step stamps, size-bounded counts, and the CRC32 trailer —
// also cross-checked against meta.RankCRCs when the meta carries one for
// this writer rank, which catches an internally consistent file swapped
// in from another generation.
func readRank(path string, meta Meta, writerRank int) (*Local, error) {
	dim := meta.Dim
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 4+5*4+2*8+4 {
		return nil, fmt.Errorf("ckpt: %s truncated: %d bytes is smaller than the header", path, st.Size())
	}
	// Everything before the 4-byte trailer feeds the CRC via the tee; the
	// parse below reads through r, and the drain after it covers payload
	// bytes the parse did not consume.
	crc := crc32.NewIEEE()
	body := io.LimitReader(f, st.Size()-4)
	r := bufio.NewReader(io.TeeReader(body, crc))
	le := binary.LittleEndian
	var mg [4]byte
	if _, err := io.ReadFull(r, mg[:]); err != nil {
		return nil, err
	}
	if mg != magic {
		return nil, fmt.Errorf("ckpt: %s: bad magic %q", path, mg[:])
	}
	hdr := make([]uint32, 5)
	if err := binary.Read(r, le, hdr); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("ckpt: %s is format version %d, want %d", path, hdr[0], Version)
	}
	if int(hdr[1]) != dim || int(hdr[3]) != meta.Ranks {
		return nil, fmt.Errorf("ckpt: %s header (dim=%d ranks=%d) disagrees with meta (dim=%d ranks=%d)",
			path, hdr[1], hdr[3], dim, meta.Ranks)
	}
	// The step stamp catches a torn snapshot: a crash between the
	// per-rank renames can leave rank files from different checkpoints
	// next to one meta, which must fail loudly instead of restoring a
	// physically inconsistent mixed-step state.
	if int(hdr[4]) != meta.Step {
		return nil, fmt.Errorf("ckpt: %s holds step %d but the meta names step %d — torn snapshot",
			path, hdr[4], meta.Step)
	}
	sz := make([]uint64, 2)
	if err := binary.Read(r, le, sz); err != nil {
		return nil, err
	}
	// Bound the counts by the file size before allocating: every element
	// record is 21 bytes and every node record 12 + 8·Σdofs, so corrupted
	// counts in an otherwise well-formed header fail loudly here instead
	// of triggering an allocation larger than the file itself.
	nodeRec := 12
	for _, d := range meta.NodalDofs {
		if d <= 0 {
			return nil, fmt.Errorf("ckpt: %s: nodal field widths %v are not all positive", path, meta.NodalDofs)
		}
		nodeRec += 8 * d
	}
	if sz[0] > uint64(st.Size())/21 || sz[1] > uint64(st.Size())/uint64(nodeRec) {
		return nil, fmt.Errorf("ckpt: %s: corrupt record counts (%d elems, %d nodes in a %d-byte file)",
			path, sz[0], sz[1], st.Size())
	}
	ne, nn := int(sz[0]), int(sz[1])
	ex := make([]uint32, 3*ne)
	lv := make([]uint8, ne)
	kx := make([]uint32, 3*nn)
	loc := &Local{ElemCn: make([]float64, ne), Nodal: make([][]float64, len(meta.NodalDofs))}
	parts := []any{ex, lv, loc.ElemCn, kx}
	for i, d := range meta.NodalDofs {
		loc.Nodal[i] = make([]float64, d*nn)
		parts = append(parts, loc.Nodal[i])
	}
	for _, part := range parts {
		if err := binary.Read(r, le, part); err != nil {
			return nil, fmt.Errorf("ckpt: %s truncated: %w", path, err)
		}
	}
	// Finish the CRC over any remaining pre-trailer bytes, then check the
	// trailer. A truncated or bit-flipped payload lands here.
	if _, err := io.Copy(io.Discard, r); err != nil {
		return nil, err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(f, trailer[:]); err != nil {
		return nil, fmt.Errorf("ckpt: %s: missing CRC trailer: %w", path, err)
	}
	stored := le.Uint32(trailer[:])
	if sum := crc.Sum32(); stored != sum {
		return nil, fmt.Errorf("ckpt: %s: CRC mismatch (stored %08x, computed %08x) — corrupt snapshot", path, stored, sum)
	}
	if len(meta.RankCRCs) > writerRank && meta.RankCRCs[writerRank] != stored {
		return nil, fmt.Errorf("ckpt: %s: CRC %08x does not match the meta's %08x — rank file from another generation",
			path, stored, meta.RankCRCs[writerRank])
	}
	loc.Elems = make([]sfc.Octant, ne)
	for i := range loc.Elems {
		loc.Elems[i] = sfc.Octant{X: ex[3*i], Y: ex[3*i+1], Z: ex[3*i+2], Level: lv[i], Dim: uint8(dim)}
	}
	loc.Keys = make([]mesh.NodeKey, nn)
	for i := range loc.Keys {
		loc.Keys[i] = mesh.NodeKey{X: kx[3*i], Y: kx[3*i+1], Z: kx[3*i+2]}
	}
	return loc, nil
}

// Read loads this rank's share of a snapshot written at meta.Ranks ranks
// onto the current communicator of any size: rank r reads writer files
// [r·R/R', (r+1)·R/R') — a contiguous, order-preserving assignment, so
// each rank's concatenated leaves form a contiguous SFC range and the
// ranges across ranks are in global order (some may be empty when the
// restart uses more ranks than the writer). The error result is
// collective-consistent. Collective.
func Read(c *par.Comm, base string, meta Meta) (*Local, error) {
	rp, r := c.Size(), c.Rank()
	lo, hi := r*meta.Ranks/rp, (r+1)*meta.Ranks/rp
	out := &Local{Nodal: make([][]float64, len(meta.NodalDofs))}
	var err error
	for i := lo; i < hi && err == nil; i++ {
		var loc *Local
		loc, err = readRank(rankPath(base, i), meta, i)
		if err != nil {
			break
		}
		out.Elems = append(out.Elems, loc.Elems...)
		out.ElemCn = append(out.ElemCn, loc.ElemCn...)
		out.Keys = append(out.Keys, loc.Keys...)
		for f := range out.Nodal {
			out.Nodal[f] = append(out.Nodal[f], loc.Nodal[f]...)
		}
	}
	if err := agree(c, err, "read"); err != nil {
		return nil, fmt.Errorf("ckpt: read %s: %w", base, err)
	}
	return out, nil
}
