// Package surface samples Gaussian-quadrature points from the molecular
// surface — the set Q of "q-points" the paper's Born-radius integral
// (Eq. 4) is evaluated over.
//
// The paper obtains Q by triangulating the molecular surface and placing
// Dunavant quadrature points in each triangle. We reproduce that pipeline
// for the van-der-Waals union-of-spheres surface: every atom sphere is
// triangulated with a subdivided icosahedron, Dunavant points are placed in
// each (projected) triangle, and points buried inside any other atom are
// culled, leaving a quadrature of the exposed molecular surface with
// outward normals and area weights. This is the substitution documented in
// DESIGN.md for the authors' surface-generation toolchain.
package surface

import (
	"math"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/nblist"
	"octgb/internal/quadrature"
	"octgb/internal/sched"
)

// QPoint is one surface quadrature point: location, unit outward normal of
// the molecular surface, and quadrature weight (units of area, Å²).
type QPoint struct {
	Pos    geom.Vec3
	Normal geom.Vec3
	Weight float64
}

// Options controls surface sampling resolution.
type Options struct {
	// SubdivLevel is the icosphere subdivision level per atom
	// (0 → 20 triangles/atom, each level quadruples the count). The zero
	// value samples at level 0; Default() gives 1 (80 triangles).
	SubdivLevel int
	// Degree is the Dunavant rule degree (1–5). Default 1 (1 point per
	// triangle; the paper notes "a constant number of quadrature points per
	// triangle").
	Degree int
	// RadiusScale inflates atom radii before surface construction
	// (1.0 = van-der-Waals surface). Default 1.0.
	RadiusScale float64
}

func (o Options) withDefaults() Options {
	if o.SubdivLevel < 0 {
		o.SubdivLevel = 0
	}
	if o.Degree <= 0 {
		o.Degree = 1
	}
	if o.RadiusScale <= 0 {
		o.RadiusScale = 1
	}
	return o
}

// Default returns the default sampling options.
func Default() Options { return Options{SubdivLevel: 1, Degree: 1, RadiusScale: 1} }

// Sample generates the surface quadrature point set of mol.
func Sample(mol *molecule.Molecule, opt Options) []QPoint {
	q, _ := sample(mol, opt, 1)
	return q
}

// SampleOwned is Sample additionally reporting, for every quadrature point,
// the index of the atom whose sphere it was placed on. Owners are what lets
// incremental (streaming) evaluation transport q-points rigidly with their
// parent atom when it moves: a point at atomPos + r·dir stays at the same
// offset under translation, and its normal and weight are translation
// invariant. Burial culling is decided at sampling time and not revisited
// by such transports (see engine.Session).
func SampleOwned(mol *molecule.Molecule, opt Options) ([]QPoint, []int32) {
	return sample(mol, opt, 1)
}

// SampleParallel is Sample with the per-atom burial tests distributed over
// a work-stealing pool of `workers` threads (at least one). The output is
// identical to Sample — points are assembled in atom order regardless of
// scheduling — so callers can switch freely between the two.
func SampleParallel(mol *molecule.Molecule, opt Options, workers int) []QPoint {
	q, _ := sample(mol, opt, workers)
	return q
}

// sample places every atom's icosphere probes and keeps those no other
// atom buries (|c_j − p|² < r_j²(1−1e-12) for some j ≠ i). Only atoms with
// |c_i − c_j| < r_i + r_j can bury a probe of atom i, so each atom gathers
// them once from a cell list and tests all its probes against them, atoms
// spread over the pool. The output is in atom, then probe, order.
func sample(mol *molecule.Molecule, opt Options, workers int) ([]QPoint, []int32) {
	opt = opt.withDefaults()
	n := mol.N()
	if n == 0 {
		return nil, nil
	}
	dirs, ws := probes(opt)
	np := len(dirs)

	centers := make([]geom.Vec3, n)
	radii := make([]float64, n)
	maxR := 0.0
	for i, a := range mol.Atoms {
		centers[i] = a.Pos
		radii[i] = a.Radius * opt.RadiusScale
		if radii[i] > maxR {
			maxR = radii[i]
		}
	}
	// The gather cutoff is (r_i+maxR)(1+1e-9) ≤ 2·maxR(1+1e-9); an edge a
	// hair above 2·maxR keeps every query within the 27 adjacent cells.
	// With every radius zero the edge is 0, the list finds nothing, and
	// indeed nothing can bury anything.
	cells := nblist.NewCellList(centers, 2*maxR*(1+1e-6))

	workers = max(workers, 1)
	keep := make([]bool, n*np)
	counts := make([]int32, n)
	scratch := make([]neighbours, workers)
	sched.NewPool(workers).ParallelFor(n, 16, func(w, lo, hi int) {
		nb := &scratch[w]
		for i := lo; i < hi; i++ {
			nb.gather(cells, centers, radii, i, maxR)
			ci, ri := centers[i], radii[i]
			last := 0
			for k, d := range dirs {
				if j := nb.burier(ci.Add(d.Scale(ri)), last); j >= 0 {
					last = j
					continue
				}
				keep[i*np+k] = true
				counts[i]++
			}
		}
	})

	total := 0
	for _, c := range counts {
		total += int(c)
	}
	out := make([]QPoint, 0, total)
	owners := make([]int32, 0, total)
	for i := range n {
		ci, ri := centers[i], radii[i]
		for k, kept := range keep[i*np : (i+1)*np] {
			if kept {
				out = append(out, QPoint{Pos: ci.Add(dirs[k].Scale(ri)), Normal: dirs[k], Weight: ws[k] * ri * ri})
				owners = append(owners, int32(i))
			}
		}
	}
	return out, owners
}

// probes returns the quadrature points' unit directions and unit-sphere
// weights, calibrated so an isolated sphere integrates to exactly 4π (flat
// facets slightly under-tile it); an atom of radius r scales them by r, r².
func probes(opt Options) (dirs []geom.Vec3, ws []float64) {
	mesh := quadrature.Icosphere(opt.SubdivLevel)
	rule := quadrature.Rule(opt.Degree)
	areaFix := 4 * math.Pi / mesh.TotalArea()
	dirs = make([]geom.Vec3, 0, len(mesh.Tris)*len(rule))
	ws = make([]float64, 0, cap(dirs))
	for i := range mesh.Tris {
		area := mesh.TriangleArea(i) * areaFix
		for _, p := range rule {
			dirs = append(dirs, mesh.PointAt(i, p.A, p.B, p.C).Unit())
			ws = append(ws, p.W*area)
		}
	}
	return dirs, ws
}

// neighbours holds one atom's candidate burying atoms as structure-of-
// arrays: centres and burial thresholds r_j²(1−1e-12). A worker reuses
// one across the atoms it scans.
type neighbours struct {
	x, y, z, r2 []float64
}

// gather collects the atoms j ≠ i with |c_i − c_j| < (r_i+r_j)(1+1e-9).
// The slack is deliberate: a burying atom satisfies the bound up to
// rounding, and an extra candidate only costs a test.
func (nb *neighbours) gather(cells *nblist.CellList, centers []geom.Vec3, radii []float64, i int, maxR float64) {
	nb.x, nb.y, nb.z, nb.r2 = nb.x[:0], nb.y[:0], nb.z[:0], nb.r2[:0]
	ci, ri := centers[i], radii[i]
	cells.ForEachInBall(ci, (ri+maxR)*(1+1e-9), int32(i), func(j int32) {
		rj := radii[j]
		if cut := (ri + rj) * (1 + 1e-9); ci.Dist2(centers[j]) < cut*cut {
			c := centers[j]
			nb.x, nb.y, nb.z = append(nb.x, c.X), append(nb.y, c.Y), append(nb.z, c.Z)
			nb.r2 = append(nb.r2, rj*rj*(1-1e-12))
		}
	})
}

// burier returns the index of a neighbour whose sphere strictly contains
// p, or -1. The scan starts at neighbour `from` (the one that buried the
// previous probe: adjacent probes tend to share a burier) and wraps.
func (nb *neighbours) burier(p geom.Vec3, from int) int {
	n := len(nb.x)
	x, y, z, r2 := nb.x, nb.y[:n], nb.z[:n], nb.r2[:n]
	for k, left := from, n; left > 0; k, left = k+1, left-1 {
		if k == n {
			k = 0
		}
		dx, dy, dz := x[k]-p.X, y[k]-p.Y, z[k]-p.Z
		if dx*dx+dy*dy+dz*dz < r2[k] {
			return k
		}
	}
	return -1
}

// TotalArea returns the summed quadrature weight — the exposed molecular
// surface area in Å².
func TotalArea(q []QPoint) float64 {
	var s float64
	for i := range q {
		s += q[i].Weight
	}
	return s
}

// Positions extracts the point locations (used to build the q-point octree).
func Positions(q []QPoint) []geom.Vec3 {
	out := make([]geom.Vec3, len(q))
	for i := range q {
		out[i] = q[i].Pos
	}
	return out
}
