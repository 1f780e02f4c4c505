package engine

import (
	"fmt"
	"runtime"
	"testing"

	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// TestResultsIndependentOfSchedule is the fixed-reduction-order property:
// every real engine, and Prepare+EvalEpol, returns bitwise-identical
// energies and Born radii for every thread count and GOMAXPROCS, because
// chunk boundaries depend only on the work size and chunk partials are
// summed in chunk order whichever worker produced them.
func TestResultsIndependentOfSchedule(t *testing.T) {
	mol := molecule.GenerateProtein("determinism", 700, 17)
	pr := NewProblem(mol, surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runners := []struct {
		name string
		run  func(threads int) (RealReport, error)
	}{
		{"OCT_CILK", func(p int) (RealReport, error) { return RunReal(pr, OctCilk, Options{Threads: p}) }},
		{"OCT_MPI", func(p int) (RealReport, error) { return RunReal(pr, OctMPI, Options{Ranks: 3, Threads: p}) }},
		{"OCT_MPI+CILK", func(p int) (RealReport, error) { return RunReal(pr, OctMPICilk, Options{Ranks: 2, Threads: p}) }},
		{"Naive", func(p int) (RealReport, error) { return RunReal(pr, Naive, Options{Threads: p}) }},
		{"Prepare+EvalEpol", func(p int) (RealReport, error) {
			prep, err := Prepare(pr, Options{Threads: p})
			if err != nil {
				return RealReport{}, err
			}
			return prep.EvalEpol(Options{Threads: p})
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			var ref RealReport
			first := true
			for _, procs := range []int{1, 2, runtime.NumCPU()} {
				runtime.GOMAXPROCS(procs)
				for _, threads := range []int{1, 2, 3, 8} {
					got, err := r.run(threads)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d threads=%d: %v", procs, threads, err)
					}
					if first {
						ref, first = got, false
						continue
					}
					where := fmt.Sprintf("GOMAXPROCS=%d threads=%d", procs, threads)
					if got.Energy != ref.Energy {
						t.Fatalf("%s: energy %.17g, want %.17g", where, got.Energy, ref.Energy)
					}
					for i := range ref.BornRadii {
						if got.BornRadii[i] != ref.BornRadii[i] {
							t.Fatalf("%s: radius[%d] %.17g, want %.17g", where, i, got.BornRadii[i], ref.BornRadii[i])
						}
					}
				}
			}
		})
	}
}
