// Package vtk writes distributed meshes and nodal/elemental fields as VTK
// XML unstructured grids (.vtu per rank plus a .pvtu index), the output
// path of the paper's software stack (Sec. III-B, "parallel VTK
// unstructured file format" consumed by ParaView).
package vtk

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"proteus/internal/mesh"
	"proteus/internal/par"
)

// Field is a named nodal or elemental array to export.
type Field struct {
	Name string
	// Ndof components per node (nodal) or per element (elemental).
	Ndof int
	// Data in mesh layout: nodal fields are full local vectors
	// (NumLocal*Ndof), elemental fields NumElems()*Ndof.
	Data []float64
	// Elemental marks cell data rather than point data.
	Elemental bool
}

// cellType returns the VTK cell type id: 8 = pixel, 11 = voxel — the
// axis-aligned quad/hex types whose corner ordering matches our
// bit-pattern corner indexing exactly.
func cellType(dim int) int {
	if dim == 2 {
		return 8
	}
	return 11
}

// Write dumps one .vtu file per rank and a .pvtu master on rank 0, under
// path base (without extension). Collective.
func Write(m *mesh.Mesh, base string, fields []Field) error {
	c := m.Comm
	dir := filepath.Dir(base)
	if dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	piece := fmt.Sprintf("%s_r%04d.vtu", base, c.Rank())
	if err := writePiece(m, piece, fields); err != nil {
		return err
	}
	var failed bool
	if c.Rank() == 0 {
		if err := writeMaster(m, base, fields); err != nil {
			failed = true
		}
	}
	if par.Allreduce(c, failed, func(a, b bool) bool { return a || b }) {
		return fmt.Errorf("vtk: master write failed")
	}
	return nil
}

func writePiece(m *mesh.Mesh, path string, fields []Field) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()

	ne := m.NumElems()
	nn := m.NumLocal
	fmt.Fprintln(w, `<?xml version="1.0"?>`)
	fmt.Fprintln(w, `<VTKFile type="UnstructuredGrid" version="0.1" byte_order="LittleEndian">`)
	fmt.Fprintln(w, `  <UnstructuredGrid>`)
	fmt.Fprintf(w, "    <Piece NumberOfPoints=\"%d\" NumberOfCells=\"%d\">\n", nn, ne)

	fmt.Fprintln(w, `      <Points>`)
	fmt.Fprintln(w, `        <DataArray type="Float64" NumberOfComponents="3" format="ascii">`)
	for i := 0; i < nn; i++ {
		x, y, z := m.NodeCoord(i)
		fmt.Fprintf(w, "%g %g %g\n", x, y, z)
	}
	fmt.Fprintln(w, `        </DataArray>`)
	fmt.Fprintln(w, `      </Points>`)

	cpe := m.CornersPerElem()
	fmt.Fprintln(w, `      <Cells>`)
	fmt.Fprintln(w, `        <DataArray type="Int64" Name="connectivity" format="ascii">`)
	for e := 0; e < ne; e++ {
		for cx := 0; cx < cpe; cx++ {
			idx, _ := m.Corner(e, cx)
			// Hanging corners are represented by their first donor; the
			// geometry error is half a fine cell, invisible at plot scale.
			fmt.Fprintf(w, "%d ", idx[0])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, `        </DataArray>`)
	fmt.Fprintln(w, `        <DataArray type="Int64" Name="offsets" format="ascii">`)
	for e := 1; e <= ne; e++ {
		fmt.Fprintf(w, "%d\n", e*cpe)
	}
	fmt.Fprintln(w, `        </DataArray>`)
	fmt.Fprintln(w, `        <DataArray type="UInt8" Name="types" format="ascii">`)
	ct := cellType(m.Dim)
	for e := 0; e < ne; e++ {
		fmt.Fprintf(w, "%d\n", ct)
	}
	fmt.Fprintln(w, `        </DataArray>`)
	fmt.Fprintln(w, `      </Cells>`)

	fmt.Fprintln(w, `      <PointData>`)
	for _, fl := range fields {
		if fl.Elemental {
			continue
		}
		fmt.Fprintf(w, "        <DataArray type=\"Float64\" Name=%q NumberOfComponents=\"%d\" format=\"ascii\">\n", fl.Name, fl.Ndof)
		for i := 0; i < nn; i++ {
			for d := 0; d < fl.Ndof; d++ {
				fmt.Fprintf(w, "%g ", fl.Data[i*fl.Ndof+d])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, `        </DataArray>`)
	}
	fmt.Fprintln(w, `      </PointData>`)

	fmt.Fprintln(w, `      <CellData>`)
	fmt.Fprintf(w, "        <DataArray type=\"Float64\" Name=\"level\" format=\"ascii\">\n")
	for e := 0; e < ne; e++ {
		fmt.Fprintf(w, "%d\n", m.ElemLevel[e])
	}
	fmt.Fprintln(w, `        </DataArray>`)
	for _, fl := range fields {
		if !fl.Elemental {
			continue
		}
		fmt.Fprintf(w, "        <DataArray type=\"Float64\" Name=%q NumberOfComponents=\"%d\" format=\"ascii\">\n", fl.Name, fl.Ndof)
		for e := 0; e < ne; e++ {
			for d := 0; d < fl.Ndof; d++ {
				fmt.Fprintf(w, "%g ", fl.Data[e*fl.Ndof+d])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, `        </DataArray>`)
	}
	fmt.Fprintln(w, `      </CellData>`)

	fmt.Fprintln(w, `    </Piece>`)
	fmt.Fprintln(w, `  </UnstructuredGrid>`)
	fmt.Fprintln(w, `</VTKFile>`)
	return nil
}

func writeMaster(m *mesh.Mesh, base string, fields []Field) error {
	f, err := os.Create(base + ".pvtu")
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	fmt.Fprintln(w, `<?xml version="1.0"?>`)
	fmt.Fprintln(w, `<VTKFile type="PUnstructuredGrid" version="0.1" byte_order="LittleEndian">`)
	fmt.Fprintln(w, `  <PUnstructuredGrid GhostLevel="0">`)
	fmt.Fprintln(w, `    <PPoints>`)
	fmt.Fprintln(w, `      <PDataArray type="Float64" NumberOfComponents="3"/>`)
	fmt.Fprintln(w, `    </PPoints>`)
	fmt.Fprintln(w, `    <PPointData>`)
	for _, fl := range fields {
		if !fl.Elemental {
			fmt.Fprintf(w, "      <PDataArray type=\"Float64\" Name=%q NumberOfComponents=\"%d\"/>\n", fl.Name, fl.Ndof)
		}
	}
	fmt.Fprintln(w, `    </PPointData>`)
	fmt.Fprintln(w, `    <PCellData>`)
	fmt.Fprintln(w, `      <PDataArray type="Float64" Name="level"/>`)
	for _, fl := range fields {
		if fl.Elemental {
			fmt.Fprintf(w, "      <PDataArray type=\"Float64\" Name=%q NumberOfComponents=\"%d\"/>\n", fl.Name, fl.Ndof)
		}
	}
	fmt.Fprintln(w, `    </PCellData>`)
	name := filepath.Base(base)
	for r := 0; r < m.Comm.Size(); r++ {
		fmt.Fprintf(w, "    <Piece Source=\"%s_r%04d.vtu\"/>\n", name, r)
	}
	fmt.Fprintln(w, `  </PUnstructuredGrid>`)
	fmt.Fprintln(w, `</VTKFile>`)
	return nil
}
