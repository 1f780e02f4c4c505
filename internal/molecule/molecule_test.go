package molecule

import (
	"math"
	"testing"

	"octgb/internal/geom"
)

func TestGenerateProteinBasics(t *testing.T) {
	m := GenerateProtein("test", 1000, 1)
	if m.N() != 1000 {
		t.Fatalf("N = %d, want 1000", m.N())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Near-neutral: |total charge| should be a small integer.
	q := m.TotalCharge()
	if math.Abs(q) > 5 {
		t.Errorf("total charge %v too large", q)
	}
	if math.Abs(q-math.Round(q)) > 1e-9 {
		t.Errorf("total charge %v not near-integer", q)
	}
}

func TestGenerateProteinDeterministic(t *testing.T) {
	a := GenerateProtein("a", 500, 42)
	b := GenerateProtein("b", 500, 42)
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatalf("atom %d differs between same-seed molecules", i)
		}
	}
	c := GenerateProtein("c", 500, 43)
	same := true
	for i := range a.Atoms {
		if a.Atoms[i] != c.Atoms[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical molecules")
	}
}

func TestGenerateProteinDensity(t *testing.T) {
	// The realized density should be near the protein density constant.
	m := GenerateProtein("dens", 20000, 7)
	b := m.Bounds()
	// Estimate occupied volume via the bounding sphere of the blob — the
	// blob fills most of it; just check the radius scale is right within 2x.
	wantR := math.Cbrt(3 * 20000 / (4 * math.Pi * AtomDensity))
	gotR := b.Size().MaxComponent() / 2
	if gotR < wantR*0.7 || gotR > wantR*1.6 {
		t.Errorf("blob radius %v out of range (expect ≈%v)", gotR, wantR)
	}
}

func TestGenerateCapsidIsShell(t *testing.T) {
	m := GenerateCapsid("shell", 20000, 20, 3)
	if m.N() != 20000 {
		t.Fatalf("N = %d", m.N())
	}
	c := m.Centroid()
	if c.Norm() > 3 {
		t.Errorf("shell centroid %v not near origin", c)
	}
	// All atoms should be within a thin radial band; measure spread.
	minR, maxR := math.Inf(1), 0.0
	for _, a := range m.Atoms {
		r := a.Pos.Norm()
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	if maxR-minR > 25 {
		t.Errorf("shell thickness %v exceeds requested 20 (+slack)", maxR-minR)
	}
	if minR < 10 {
		t.Errorf("shell not hollow: minR=%v", minR)
	}
}

func TestGenerateComplexContainsBoth(t *testing.T) {
	m := GenerateComplex("cx", 2000, 300, 5)
	if m.N() != 2300 {
		t.Fatalf("N = %d, want 2300", m.N())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestZDockLikeSuite(t *testing.T) {
	s := ZDockLikeSuite(84)
	if len(s) != 84 {
		t.Fatalf("suite size %d", len(s))
	}
	if s[0].Atoms != 400 {
		t.Errorf("first entry %d atoms, want 400", s[0].Atoms)
	}
	if s[83].Atoms != 16301 {
		t.Errorf("last entry %d atoms, want 16301", s[83].Atoms)
	}
	for i := 1; i < len(s); i++ {
		if s[i].Atoms < s[i-1].Atoms {
			t.Errorf("suite not monotone at %d", i)
		}
	}
	m := s[0].Build()
	if m.N() != 400 {
		t.Errorf("built %d atoms", m.N())
	}
}

func TestTransformPreservesInternalGeometry(t *testing.T) {
	m := GenerateProtein("t", 100, 9)
	tr := geom.RotationAxisAngle(geom.V(1, 2, 3), 1.1)
	tr.T = geom.V(10, -5, 2)
	mt := m.Transform(tr)
	// Pairwise distances are invariant under rigid transforms.
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			d0 := m.Atoms[i].Pos.Dist(m.Atoms[j].Pos)
			d1 := mt.Atoms[i].Pos.Dist(mt.Atoms[j].Pos)
			if math.Abs(d0-d1) > 1e-9 {
				t.Fatalf("distance %d-%d changed: %v -> %v", i, j, d0, d1)
			}
		}
	}
	// Original untouched.
	if m.Atoms[0].Pos == mt.Atoms[0].Pos {
		t.Error("transform did not move atoms (or mutated input)")
	}
}

func TestMerge(t *testing.T) {
	a := GenerateProtein("a", 50, 1)
	b := GenerateProtein("b", 70, 2)
	m := Merge("ab", a, b)
	if m.N() != 120 {
		t.Fatalf("merged N = %d", m.N())
	}
	if m.Atoms[0] != a.Atoms[0] || m.Atoms[50] != b.Atoms[0] {
		t.Error("merge order wrong")
	}
}

func TestValidateCatchesBadAtoms(t *testing.T) {
	m := &Molecule{Name: "bad", Atoms: []Atom{{Pos: geom.V(0, 0, 0), Radius: 0, Charge: 0}}}
	if err := m.Validate(); err == nil {
		t.Error("zero radius not caught")
	}
	m = &Molecule{Name: "bad", Atoms: []Atom{{Pos: geom.V(math.NaN(), 0, 0), Radius: 1, Charge: 0}}}
	if err := m.Validate(); err == nil {
		t.Error("NaN position not caught")
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m = &Molecule{Name: "bad", Atoms: []Atom{{Pos: geom.V(0, 0, 0), Radius: r, Charge: 0}}}
		if err := m.Validate(); err == nil {
			t.Errorf("radius %v not caught", r)
		}
	}
}

func TestCentroidOfEmpty(t *testing.T) {
	m := &Molecule{}
	if m.Centroid() != (geom.Vec3{}) {
		t.Error("empty centroid not zero")
	}
}
