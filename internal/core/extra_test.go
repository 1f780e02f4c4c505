package core

import (
	"math"
	"testing"

	"octgb/internal/gb"
)

func TestPrintedCriterionDegeneratesToNaive(t *testing.T) {
	// DESIGN.md's criterion note: with the poster-printed (1+ε)^{1/6}
	// acceptance test, protein-scale Born computations accept no cell
	// pair — the treecode performs the naive N·m work.
	m, q := testMol(500, 91)
	bs := NewBornSolver(m, q, BornConfig{Eps: 0.9, CriterionPower: 6})
	sNode, sAtom := bs.NewAccumulators()
	var st Stats
	for l := 0; l < bs.NumQLeaves(); l++ {
		st.Add(bs.AccumulateQLeaf(l, sNode, sAtom))
	}
	nm := int64(m.N()) * int64(len(q))
	if st.NearPairs < nm*98/100 {
		t.Errorf("near pairs %d below 98%% of N·m %d — criterion accepted too much", st.NearPairs, nm)
	}
	// Compare with the default criterion, which accepts orders of
	// magnitude more cell pairs.
	bs1 := NewBornSolver(m, q, BornConfig{Eps: 0.9, CriterionPower: 1})
	s1n, s1a := bs1.NewAccumulators()
	var st1 Stats
	for l := 0; l < bs1.NumQLeaves(); l++ {
		st1.Add(bs1.AccumulateQLeaf(l, s1n, s1a))
	}
	if st1.NearPairs >= st.NearPairs {
		t.Errorf("default criterion near pairs %d not below printed criterion's %d",
			st1.NearPairs, st.NearPairs)
	}
	// And the power-6 result is essentially the naive reference.
	rTree := make([]float64, m.N())
	bs.PushIntegrals(sNode, sAtom, 0, int32(m.N()), rTree)
	R := bs.RadiiToOriginal(rTree)
	exact := gb.BornRadiiR6(m, q)
	for i := range R {
		if e := relErr(R[i], exact[i]); e > 1e-3 {
			t.Fatalf("atom %d: power-6 radius %v vs naive %v", i, R[i], exact[i])
		}
	}
}

func TestEnergyScaleValue(t *testing.T) {
	want := -0.5 * (1 - 1/80.0) * gb.CoulombConstant
	if got := EnergyScale(); math.Abs(got-want) > 1e-12 {
		t.Errorf("EnergyScale = %v, want %v", got, want)
	}
}

func TestLeafEnergyRowsPartition(t *testing.T) {
	// Summing row-restricted energies over disjoint ranges equals the
	// full leaf-driven sum (linearity of the far field in row charges).
	m, q := testMol(350, 95)
	R := gb.BornRadiiR6(m, q)
	es := NewEpolSolverFromMolecule(m, R, EpolConfig{Eps: 0.9})

	var full float64
	for l := 0; l < es.NumLeaves(); l++ {
		e, _ := es.LeafEnergy(l)
		full += e
	}
	n := int32(m.N())
	var split float64
	for l := 0; l < es.NumLeaves(); l++ {
		e1, _ := es.LeafEnergyRows(l, 0, n/3)
		e2, _ := es.LeafEnergyRows(l, n/3, 2*n/3)
		e3, _ := es.LeafEnergyRows(l, 2*n/3, n)
		split += e1 + e2 + e3
	}
	if e := relErr(split, full); e > 1e-12 {
		t.Errorf("row-partitioned %v != full %v", split, full)
	}
}
