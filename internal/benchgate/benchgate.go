// Package benchgate is the shared core of the micro-benchmark commands
// (cmd/benchkernels, cmd/benchstream): a min-of-reps runner over
// testing.Benchmark and the regression check against a committed
// baseline.
package benchgate

import (
	"fmt"
	"io"
	"math"
	"testing"
)

// Result is one benchmark's fastest run, in the committed JSON form.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Best runs fn reps times (at least once) with allocation reporting and
// keeps the fastest run. The minimum is the standard noise-robust
// estimator for single-machine benchmarking: every source of
// interference only ever makes a run slower.
func Best(name string, reps int, fn func(b *testing.B)) Result {
	var best testing.BenchmarkResult
	bestNS := math.Inf(1)
	for i := 0; i < max(reps, 1); i++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns < bestNS {
			bestNS, best = ns, r
		}
	}
	return Result{name, bestNS, best.AllocedBytesPerOp(), best.AllocsPerOp()}
}

// Gate is a baseline comparison: a gated benchmark fails if its ns/op
// regressed by more than Tol or it allocates more per op than the
// baseline. Ungated benchmarks are reported but never fail.
type Gate struct {
	Tol   float64
	Label string            // heading of the name column
	Width int               // width of the name column
	Gated func(string) bool // nil gates every benchmark
}

// Check prints a baseline-vs-fresh table to w and returns the number of
// failed checks (a benchmark both slower and allocating counts twice).
// Benchmarks absent from the baseline are listed as new.
func (g Gate) Check(w io.Writer, baseline, fresh []Result) int {
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	fmt.Fprintf(w, "\n%-*s %14s %14s %9s\n", g.Width, g.Label, "baseline ns/op", "fresh ns/op", "delta")
	failed := 0
	for _, r := range fresh {
		b, ok := base[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-*s %14s %14.1f %9s\n", g.Width, r.Name, "(new)", r.NsPerOp, "-")
			continue
		}
		delta := r.NsPerOp/b.NsPerOp - 1
		status := ""
		if g.Gated == nil || g.Gated(r.Name) {
			if delta > g.Tol {
				status = "  REGRESSED"
				failed++
			}
			if r.AllocsPerOp > b.AllocsPerOp {
				status += "  ALLOCS"
				failed++
			}
		}
		fmt.Fprintf(w, "%-*s %14.1f %14.1f %+8.1f%%%s\n", g.Width, r.Name, b.NsPerOp, r.NsPerOp, delta*100, status)
	}
	return failed
}
