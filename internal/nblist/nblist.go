// Package nblist implements cell lists and explicit nonbonded neighbour
// lists — the data structure traditional MD packages (Amber, Gromacs,
// NAMD) use for cutoff-truncated interactions, and the structure the paper
// argues octrees should replace (§II "Octrees vs. Nblists"): an nblist's
// size grows cubically with the distance cutoff, its rebuild is costly, and
// packages relying on it run out of memory for very large molecules. The
// baseline engines in internal/baselines are built on this package.
package nblist

import (
	"math"

	"octgb/internal/geom"
)

// CellList is a uniform spatial hash with cell edge ≥ the query cutoff, so
// any neighbour within the cutoff lies in the 27 surrounding cells.
type CellList struct {
	pts        []geom.Vec3
	origin     geom.Vec3
	cell       float64
	nx, ny, nz int
	heads      []int32 // head of per-cell singly linked list, -1 empty
	next       []int32 // next point in the same cell
}

// NewCellList builds a cell list with the given cell edge (usually the
// cutoff). The points slice is retained (not copied).
func NewCellList(pts []geom.Vec3, cellSize float64) *CellList {
	c := &CellList{pts: pts, cell: cellSize}
	if len(pts) == 0 || cellSize <= 0 {
		c.nx, c.ny, c.nz = 1, 1, 1
		c.heads = []int32{-1}
		return c
	}
	b := geom.NewAABB(pts...)
	c.origin = b.Min
	size := b.Size()
	dim := func(s float64) int {
		n := int(math.Floor(s/c.cell)) + 1
		if n < 1 {
			n = 1
		}
		return n
	}
	// Cap the grid at O(len(pts)) cells: a cell edge far below the point
	// spacing only wastes memory (queries stay correct for any edge, since
	// the search reach is computed from cutoff/edge).
	maxCells := 4*len(pts) + 1024
	for {
		c.nx, c.ny, c.nz = dim(size.X), dim(size.Y), dim(size.Z)
		if c.nx <= maxCells && c.ny <= maxCells && c.nz <= maxCells &&
			c.nx*c.ny*c.nz <= maxCells {
			break
		}
		c.cell *= 2
	}
	c.heads = make([]int32, c.nx*c.ny*c.nz)
	for i := range c.heads {
		c.heads[i] = -1
	}
	c.next = make([]int32, len(pts))
	for i, p := range pts {
		ci := c.cellIndex(p)
		c.next[i] = c.heads[ci]
		c.heads[ci] = int32(i)
	}
	return c
}

func (c *CellList) clampIdx(v float64, n int) int {
	i := int(math.Floor(v / c.cell))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func (c *CellList) cellIndex(p geom.Vec3) int {
	d := p.Sub(c.origin)
	ix := c.clampIdx(d.X, c.nx)
	iy := c.clampIdx(d.Y, c.ny)
	iz := c.clampIdx(d.Z, c.nz)
	return (iz*c.ny+iy)*c.nx + ix
}

// ForEachNeighbor calls fn(j) for every point j ≠ i within cutoff of point
// i. It returns the number of candidate distance tests performed (the work
// counter the nblist-rebuild cost model consumes).
func (c *CellList) ForEachNeighbor(i int, cutoff float64, fn func(j int32)) int64 {
	return c.ForEachInBall(c.pts[i], cutoff, int32(i), fn)
}

// ForEachInBall calls fn(j) for every point j ≠ exclude within cutoff of p.
// A list built with a non-positive cell edge holds no points and finds
// nothing.
func (c *CellList) ForEachInBall(p geom.Vec3, cutoff float64, exclude int32, fn func(j int32)) int64 {
	if len(c.pts) == 0 || c.cell <= 0 {
		return 0
	}
	c2 := cutoff * cutoff
	d := p.Sub(c.origin)
	reach := int(math.Ceil(cutoff / c.cell))
	ix := c.clampIdx(d.X, c.nx)
	iy := c.clampIdx(d.Y, c.ny)
	iz := c.clampIdx(d.Z, c.nz)
	var tests int64
	for dz := -reach; dz <= reach; dz++ {
		z := iz + dz
		if z < 0 || z >= c.nz {
			continue
		}
		for dy := -reach; dy <= reach; dy++ {
			y := iy + dy
			if y < 0 || y >= c.ny {
				continue
			}
			for dx := -reach; dx <= reach; dx++ {
				x := ix + dx
				if x < 0 || x >= c.nx {
					continue
				}
				for j := c.heads[(z*c.ny+y)*c.nx+x]; j >= 0; j = c.next[j] {
					tests++
					if j == exclude {
						continue
					}
					if c.pts[j].Dist2(p) <= c2 {
						fn(j)
					}
				}
			}
		}
	}
	return tests
}

// NBList is an explicit per-atom neighbour list, the structure Amber-style
// packages persist between steps.
type NBList struct {
	Pairs      [][]int32 // Pairs[i] = neighbours of i (all j ≠ i within cutoff)
	Cutoff     float64
	BuildTests int64 // candidate distance tests during construction
}

// Build constructs the full nonbonded list for the given cutoff.
func Build(pts []geom.Vec3, cutoff float64) *NBList {
	cl := NewCellList(pts, cutoff)
	nb := &NBList{Pairs: make([][]int32, len(pts)), Cutoff: cutoff}
	for i := range pts {
		var lst []int32
		nb.BuildTests += cl.ForEachNeighbor(i, cutoff, func(j int32) {
			lst = append(lst, j)
		})
		nb.Pairs[i] = lst
	}
	return nb
}

// NumPairs returns the total number of stored (ordered) neighbour entries.
func (n *NBList) NumPairs() int64 {
	var s int64
	for _, l := range n.Pairs {
		s += int64(len(l))
	}
	return s
}

// MemoryBytes estimates the nblist's memory footprint: 4 bytes per stored
// neighbour plus per-atom slice headers. This is the quantity that grows
// cubically with the cutoff and linearly with N (§II of the paper).
func (n *NBList) MemoryBytes() int64 {
	return n.NumPairs()*4 + int64(len(n.Pairs))*24
}
