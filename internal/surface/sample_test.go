package surface

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"octgb/internal/geom"
	"octgb/internal/molecule"
)

// bruteSample is the all-pairs reference for the sampler: every probe of
// every atom is tested against every other atom with the burial predicate
// |c_j − p|² < r_j²(1−1e-12), no spatial index involved.
func bruteSample(mol *molecule.Molecule, opt Options) ([]QPoint, []int32) {
	opt = opt.withDefaults()
	dirs, ws := probes(opt)
	var out []QPoint
	var owners []int32
	for i, ai := range mol.Atoms {
		ri := ai.Radius * opt.RadiusScale
	probe:
		for k, d := range dirs {
			p := ai.Pos.Add(d.Scale(ri))
			for j, aj := range mol.Atoms {
				r := aj.Radius * opt.RadiusScale
				if j != i && aj.Pos.Dist2(p) < r*r*(1-1e-12) {
					continue probe
				}
			}
			out = append(out, QPoint{Pos: p, Normal: d, Weight: ws[k] * ri * ri})
			owners = append(owners, int32(i))
		}
	}
	return out, owners
}

// sameBits reports whether two q-point sets are bitwise identical, point
// by point and in order.
func sameBits(a, b []QPoint) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d points, want %d", len(a), len(b))
	}
	bits := func(q QPoint) [7]uint64 {
		return [7]uint64{
			math.Float64bits(q.Pos.X), math.Float64bits(q.Pos.Y), math.Float64bits(q.Pos.Z),
			math.Float64bits(q.Normal.X), math.Float64bits(q.Normal.Y), math.Float64bits(q.Normal.Z),
			math.Float64bits(q.Weight),
		}
	}
	for i := range a {
		if bits(a[i]) != bits(b[i]) {
			return fmt.Errorf("point %d is %+v, want %+v", i, a[i], b[i])
		}
	}
	return nil
}

type oracleCase struct {
	name string
	mol  *molecule.Molecule
	opt  Options
}

func oracleCases() []oracleCase {
	pair := func(name string, r1 float64, c2 geom.Vec3, r2 float64) *molecule.Molecule {
		return &molecule.Molecule{Name: name, Atoms: []molecule.Atom{
			{Pos: geom.V(0, 0, 0), Radius: r1}, {Pos: c2, Radius: r2},
		}}
	}
	small := []*molecule.Molecule{
		molecule.GenerateProtein("oracle", 150, 7),
		singleAtom(1.7),
		pair("coincident", 1.5, geom.V(0, 0, 0), 1.5),
		pair("tangent", 1, geom.V(2, 0, 0), 1),
		pair("inside", 3, geom.V(0.5, 0, 0), 1),
	}
	var cases []oracleCase
	for _, m := range small {
		for level := 0; level <= 2; level++ {
			for _, deg := range []int{1, 3, 5} {
				opt := Options{SubdivLevel: level, Degree: deg, RadiusScale: 1}
				cases = append(cases, oracleCase{fmt.Sprintf("%s/%+v", m.Name, opt), m, opt})
			}
		}
		opt := Default()
		opt.RadiusScale = 1.4
		cases = append(cases, oracleCase{fmt.Sprintf("%s/%+v", m.Name, opt), m, opt})
	}
	// The protein sizes of one cold-energy benchmark round.
	for _, e := range molecule.ZDockLikeSuite(14)[:7] {
		m := molecule.GenerateProtein(e.Name, e.Atoms, int64(e.Atoms))
		cases = append(cases, oracleCase{fmt.Sprintf("%s-%d/default", e.Name, e.Atoms), m, Default()})
	}
	return cases
}

// TestSampleMatchesBruteForce pins every sampling entry point bitwise to
// the all-pairs oracle — positions, normals, weights, owners and order —
// at every worker count and GOMAXPROCS.
func TestSampleMatchesBruteForce(t *testing.T) {
	cases := oracleCases()
	want := make([][]QPoint, len(cases))
	wantOwners := make([][]int32, len(cases))
	for i, c := range cases {
		want[i], wantOwners[i] = bruteSample(c.mol, c.opt)
	}
	procsList := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		procsList = append(procsList, n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			if err := sameBits(Sample(c.mol, c.opt), want[i]); err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: Sample: %v", procs, c.name, err)
			}
			q, owners := SampleOwned(c.mol, c.opt)
			if err := sameBits(q, want[i]); err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: SampleOwned: %v", procs, c.name, err)
			}
			if !slices.Equal(owners, wantOwners[i]) {
				t.Fatalf("GOMAXPROCS=%d %s: SampleOwned owners differ", procs, c.name)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				if err := sameBits(SampleParallel(c.mol, c.opt, workers), want[i]); err != nil {
					t.Fatalf("GOMAXPROCS=%d workers=%d %s: SampleParallel: %v", procs, workers, c.name, err)
				}
			}
		}
	}
}
