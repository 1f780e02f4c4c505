// Command benchkernels measures the micro-level costs behind the
// two-phase treecode: the Born and energy evaluation phases (recursive
// fused traversal vs flat interaction-list kernels, plus the list rebuild
// cost amortized by ε-sweeps and docking poses), the same flat kernels
// under the work-stealing pool at GOMAXPROCS workers, and ParallelFor
// dispatch through the work-stealing pool.
//
// Results are printed and written as JSON (default BENCH_kernels.json,
// the file committed at the repository root).
//
// Usage:
//
//	benchkernels                 # N = 10000 atoms, writes BENCH_kernels.json
//	benchkernels -n 2000 -o out.json
//	benchkernels -check          # compare against committed JSON, exit 1
//	                             # on >15% ns/op kernel regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"octgb/internal/benchgate"
	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/sched"
	"octgb/internal/surface"
)

type report struct {
	NAtoms     int                `json:"n_atoms"`
	NQPoints   int                `json:"n_qpoints"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    []benchgate.Result `json:"results"`
	Derived    map[string]float64 `json:"derived"`
}

func main() {
	n := flag.Int("n", 10000, "atom count for the kernel benchmarks")
	outPath := flag.String("o", "BENCH_kernels.json", "output JSON path (baseline path with -check)")
	check := flag.Bool("check", false, "compare against the committed JSON instead of overwriting it; exit 1 on regression")
	tol := flag.Float64("tol", 0.15, "allowed fractional ns/op regression for -check")
	best := flag.Int("best", 0, "repeat each treecode kernel this many times and keep the fastest (0 = 1 normally, 3 with -check)")
	flag.Parse()
	if *best == 0 {
		*best = 1
		if *check {
			*best = 3
		}
	}

	var baseline *report
	if *check {
		buf, err := os.ReadFile(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchkernels: -check:", err)
			os.Exit(1)
		}
		baseline = new(report)
		if err := json.Unmarshal(buf, baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchkernels: -check: parse %s: %v\n", *outPath, err)
			os.Exit(1)
		}
		if baseline.NAtoms != *n {
			fmt.Printf("note: baseline was recorded at n=%d, running at n=%d\n", baseline.NAtoms, *n)
		}
	}

	rep := report{
		NAtoms:     *n,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Derived:    map[string]float64{},
	}
	run := func(name string, fn func(b *testing.B)) float64 {
		// Min-of-reps on the treecode kernels only.
		reps := 1
		if treecodeKernel(name) {
			reps = *best
		}
		r := benchgate.Best(name, reps, fn)
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-34s %14.1f ns/op %12d B/op %6d allocs/op\n",
			name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		return r.NsPerOp
	}

	// ---- treecode kernels ------------------------------------------------
	m := molecule.GenerateProtein("bench", *n, 5)
	qpts := surface.Sample(m, surface.Default())
	rep.NQPoints = len(qpts)
	bs := core.NewBornSolver(m, qpts, core.BornConfig{Eps: 0.9})
	bornList := bs.BuildBornList(0, bs.NumQLeaves())
	workers := runtime.GOMAXPROCS(0)
	pool := sched.NewPool(workers)
	rep.Derived["par_workers"] = float64(workers)

	recNS := run("born/recursive", func(b *testing.B) {
		sN, sA := bs.NewAccumulators()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for l := 0; l < bs.NumQLeaves(); l++ {
				bs.AccumulateQLeaf(l, sN, sA)
			}
		}
	})
	flatNS := run("born/flat-eval", func(b *testing.B) {
		sN, sA := bs.NewAccumulators()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.EvalBornList(bornList, sN, sA)
		}
	})
	parNS := run("born/flat-eval-par", func(b *testing.B) {
		sN, sA := bs.NewAccumulators()
		accN := make([][]float64, pool.Workers())
		accA := make([][]float64, pool.Workers())
		for w := range accN {
			accN[w], accA[w] = bs.NewAccumulators()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evalBornListParallel(bs, bornList, pool, accN, accA, sN, sA)
		}
	})
	rep.Derived["born_par_speedup"] = flatNS / parNS
	run("born/flat-rebuild", func(b *testing.B) {
		scratch := new(core.InteractionList)
		bs.BuildBornListInto(scratch, 0, bs.NumQLeaves()) // warm capacity
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.BuildBornListInto(scratch, 0, bs.NumQLeaves())
		}
	})
	rep.Derived["born_eval_speedup"] = recNS / flatNS

	// Born radii through the treecode feed the energy benchmarks.
	sN, sA := bs.NewAccumulators()
	bs.EvalBornList(bornList, sN, sA)
	rTree := make([]float64, m.N())
	bs.PushIntegrals(sN, sA, 0, int32(m.N()), rTree)
	radii := bs.RadiiToOriginal(rTree)

	es := core.NewEpolSolverFromMolecule(m, radii, core.EpolConfig{Eps: 0.9})
	epolList := es.BuildEpolList(0, es.NumLeaves())

	recNS = run("epol/recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var raw float64
			for l := 0; l < es.NumLeaves(); l++ {
				e, _ := es.LeafEnergy(l)
				raw += e
			}
			_ = raw
		}
	})
	flatNS = run("epol/flat-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			raw, _ := es.EvalEpolList(epolList)
			_ = raw
		}
	})
	parNS = run("epol/flat-eval-par", func(b *testing.B) {
		partial := make([]float64, pool.Workers())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raw := evalEpolListParallel(es, epolList, pool, partial)
			_ = raw
		}
	})
	rep.Derived["epol_par_speedup"] = flatNS / parNS
	run("epol/flat-rebuild", func(b *testing.B) {
		scratch := new(core.InteractionList)
		es.BuildEpolListInto(scratch, 0, es.NumLeaves()) // warm capacity
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			es.BuildEpolListInto(scratch, 0, es.NumLeaves())
		}
	})
	rep.Derived["epol_eval_speedup"] = recNS / flatNS

	// ---- scheduler dispatch ---------------------------------------------
	work := func(w, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i % 17)
		}
		_ = s
	}
	for _, p := range []int{1, 2, 4, 8} {
		ns := run(fmt.Sprintf("parallelfor/chaselev/p=%d", p), func(b *testing.B) {
			pool := sched.NewPool(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.ParallelFor(1<<14, 8, work)
			}
		})
		rep.Derived[fmt.Sprintf("parallelfor_chaselev_p%d_ns", p)] = ns
	}

	if *check {
		os.Exit(checkAgainst(baseline, &rep, *tol))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchkernels:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchkernels:", err)
		os.Exit(1)
	}
	fmt.Printf("\nborn eval speedup (flat vs recursive): %.2fx\n", rep.Derived["born_eval_speedup"])
	fmt.Printf("epol eval speedup (flat vs recursive): %.2fx\n", rep.Derived["epol_eval_speedup"])
	fmt.Printf("wrote %s\n", *outPath)
}

// treecodeKernel reports the Born and energy benchmarks, the ones repeated
// for -best.
func treecodeKernel(name string) bool {
	return strings.HasPrefix(name, "born/") || strings.HasPrefix(name, "epol/")
}

// checkAgainst compares a fresh run with the committed baseline and
// returns the process exit code: 1 if any treecode evaluation kernel
// regressed by more than tol on ns/op or gained an allocation, else 0.
// Scheduler microbenches (parallelfor/*) and the list rebuilds
// are reported but not gated — the sub-100ns and short-bench scales are
// far noisier than the evaluation kernels the gate exists to protect.
// Run on a quiet machine: the gate measures the CPU, and a loaded box
// fails it spuriously.
func checkAgainst(baseline, fresh *report, tol float64) int {
	gate := benchgate.Gate{Tol: tol, Label: "kernel", Width: 34, Gated: func(name string) bool {
		return treecodeKernel(name) && !strings.Contains(name, "rebuild")
	}}
	failed := gate.Check(os.Stdout, baseline.Results, fresh.Results)
	if failed > 0 {
		fmt.Printf("\nFAIL: %d kernel(s) regressed beyond %.0f%% vs %d-atom baseline\n",
			failed, tol*100, baseline.NAtoms)
		return 1
	}
	fmt.Printf("\nOK: no kernel regressed beyond %.0f%%\n", tol*100)
	return 0
}

// evalBornListParallel times pooled Born evaluation with per-worker
// accumulators: far and near entries form one combined index space the
// workers chunk and steal, each into its own pre-allocated accumulator
// pair, reduced into sNode/sAtom afterwards. (The engine instead reduces
// fixed chunks in chunk order; this form keeps the committed baseline
// comparable.) Accumulators are not zeroed between calls —
// like the serial benchmark loop, the sums just keep growing.
func evalBornListParallel(bs *core.BornSolver, list *core.InteractionList, pool *sched.Pool, accN, accA [][]float64, sNode, sAtom []float64) {
	nf := len(list.Far)
	total := nf + len(list.Near)
	if total == 0 {
		return
	}
	pool.ParallelFor(total, 0, func(w, lo, hi int) {
		if lo < nf {
			fhi := hi
			if fhi > nf {
				fhi = nf
			}
			bs.EvalBornFarRange(list, lo, fhi, accN[w])
		}
		if hi > nf {
			nlo := lo
			if nlo < nf {
				nlo = nf
			}
			bs.EvalBornNearRange(list, nlo-nf, hi-nf, accA[w])
		}
	})
	for w := range accN {
		for i := range sNode {
			sNode[i] += accN[w][i]
		}
		for i := range sAtom {
			sAtom[i] += accA[w][i]
		}
	}
}

// evalEpolListParallel times pooled energy evaluation with per-worker
// partial sums over the combined near+far index space, reduced to the raw
// ordered-pair sum.
func evalEpolListParallel(es *core.EpolSolver, list *core.InteractionList, pool *sched.Pool, partial []float64) float64 {
	nn := len(list.Near)
	total := nn + len(list.Far)
	if total == 0 {
		return 0
	}
	for w := range partial {
		partial[w] = 0
	}
	pool.ParallelFor(total, 0, func(w, lo, hi int) {
		var sum float64
		if lo < nn {
			nhi := hi
			if nhi > nn {
				nhi = nn
			}
			sum += es.EvalEpolNearRange(list, lo, nhi)
		}
		if hi > nn {
			flo := lo
			if flo < nn {
				flo = nn
			}
			sum += es.EvalEpolFarRange(list, flo-nn, hi-nn)
		}
		partial[w] += sum
	})
	var raw float64
	for _, p := range partial {
		raw += p
	}
	return raw
}
