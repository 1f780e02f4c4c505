package engine

import (
	"fmt"
	"testing"

	"octgb/internal/core"
	"octgb/internal/gb"
)

// The engine-level parity suite: every real engine runs the two-phase
// interaction-list path, and must reproduce the serial recursive oracle —
// core.ComputeSerial (single-tree traversals, the distributed engines'
// algorithm) or core.ComputeSerialDual (dual-tree, OctCilk's) — in
// energies, radii and treecode work counters. OctCilk's NodesVisited is
// exempt: it counts the dual list build's visits, not a recursion's.

// serialOracle runs the recursive serial pipeline matching engine k.
func serialOracle(pr *Problem, k Kind, o Options) core.Result {
	o = o.withDefaults(k)
	bc := core.BornConfig{Eps: o.BornEps, CriterionPower: o.CriterionPower, LeafSize: o.LeafSize}
	ec := core.EpolConfig{Eps: o.EpolEps, Math: o.Math}
	if k == OctCilk {
		return core.ComputeSerialDual(pr.Mol, pr.QPts, bc, ec)
	}
	return core.ComputeSerial(pr.Mol, pr.QPts, bc, ec)
}

func TestFlatMatchesRecursiveAcrossEngines(t *testing.T) {
	pr := testProblem(900, 71)
	cases := []struct {
		kind Kind
		o    Options
	}{
		{OctCilk, Options{Threads: 1}},
		{OctCilk, Options{Threads: 4}},
		{OctMPI, Options{Ranks: 3}},
		{OctMPI, Options{Ranks: 4}},
		{OctMPICilk, Options{Ranks: 3, Threads: 2}},
		{OctMPICilk, Options{Ranks: 2, Threads: 3}},
		{OctMPICilk, Options{Ranks: 2, Threads: 3, Math: gb.Approximate}},
		{OctMPICilk, Options{Ranks: 2, Threads: 2, Division: AtomBased}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%v/P=%d/p=%d", c.kind, c.o.Ranks, c.o.Threads), func(t *testing.T) {
			flat, err := RunReal(pr, c.kind, c.o)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			rec := serialOracle(pr, c.kind, c.o)
			if e := relErr(flat.Energy, rec.Epol); e > 1e-12 {
				t.Errorf("energy: flat %v vs recursive %v (rel %v)", flat.Energy, rec.Epol, e)
			}
			for i := range rec.BornRadii {
				if e := relErr(flat.BornRadii[i], rec.BornRadii[i]); e > 1e-12 {
					t.Fatalf("radius[%d]: flat %v vs recursive %v", i, flat.BornRadii[i], rec.BornRadii[i])
				}
			}
			if flat.BornStats.FarEval != rec.BornStats.FarEval || flat.BornStats.NearPairs != rec.BornStats.NearPairs {
				t.Errorf("Born counters: flat %+v vs recursive %+v", flat.BornStats, rec.BornStats)
			}
			if flat.EpolStats.FarEval != rec.EpolStats.FarEval || flat.EpolStats.NearPairs != rec.EpolStats.NearPairs {
				t.Errorf("Epol counters: flat %+v vs recursive %+v", flat.EpolStats, rec.EpolStats)
			}
			if c.kind != OctCilk {
				// Distributed engines mirror the recursion exactly,
				// NodesVisited included.
				if flat.BornStats != rec.BornStats || flat.EpolStats != rec.EpolStats {
					t.Errorf("stats: flat %+v/%+v vs recursive %+v/%+v",
						flat.BornStats, flat.EpolStats, rec.BornStats, rec.EpolStats)
				}
			}
		})
	}
}

// TestFlatDistributedDataEnergy: the NaN-poisoned distributed-data engine
// must agree with the serial recursive oracle — the flat kernels respect
// the residency contract.
func TestFlatDistributedDataEnergy(t *testing.T) {
	pr := testProblem(600, 72)
	rec := serialOracle(pr, OctMPI, Options{})
	for _, P := range []int{3, 4} {
		flat, err := RunDistributedDataEnergy(pr, P, Options{})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		if e := relErr(flat, rec.Epol); e > 1e-12 {
			t.Errorf("P=%d distributed-data energy: flat %v vs recursive %v (rel %v)", P, flat, rec.Epol, e)
		}
	}
}
