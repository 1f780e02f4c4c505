package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/surface"
)

// jitterFrames builds a deterministic k-frame jitter stream over mol: each
// frame moves `movers` atoms by a uniform per-axis displacement of up to
// amp, compounding across frames. When cluster > 0 the movers are drawn
// from the `cluster` atoms nearest atom 0 — repeatedly jittering a spatial
// neighborhood is the streaming workload (a flexible loop, a refining
// ligand), and it is what accumulates the drift that walks drivers through
// the re-derivation band instead of jumping straight to a refresh.
func jitterFrames(mol *molecule.Molecule, k, movers, cluster int, amp float64, seed int64) []FrameDelta {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]geom.Vec3, mol.N())
	for i := range mol.Atoms {
		pos[i] = mol.Atoms[i].Pos
	}
	pick := make([]int, mol.N())
	for i := range pick {
		pick[i] = i
	}
	if cluster > 0 && cluster < len(pick) {
		c := mol.Atoms[0].Pos
		sort.Slice(pick, func(a, b int) bool {
			return mol.Atoms[pick[a]].Pos.Dist2(c) < mol.Atoms[pick[b]].Pos.Dist2(c)
		})
		pick = pick[:cluster]
	}
	frames := make([]FrameDelta, k)
	for f := range frames {
		moves := make([]AtomMove, 0, movers)
		for m := 0; m < movers; m++ {
			i := pick[rng.Intn(len(pick))]
			d := geom.Vec3{
				X: (rng.Float64()*2 - 1) * amp,
				Y: (rng.Float64()*2 - 1) * amp,
				Z: (rng.Float64()*2 - 1) * amp,
			}
			pos[i] = pos[i].Add(d)
			moves = append(moves, AtomMove{Index: i, Pos: pos[i]})
		}
		frames[f] = FrameDelta{Moves: moves}
	}
	return frames
}

// runStream replays frames through a fresh session and returns the
// per-frame energies plus the accumulated reports.
func runStream(t *testing.T, mol *molecule.Molecule, o SessionOptions, frames []FrameDelta) ([]float64, []FrameReport) {
	t.Helper()
	ss, err := NewSession(mol, o)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	energies := make([]float64, 0, len(frames)+1)
	energies = append(energies, ss.Energy())
	reports := make([]FrameReport, 0, len(frames))
	for fi, d := range frames {
		rep, err := ss.Step(d)
		if err != nil {
			t.Fatalf("Step frame %d: %v", fi, err)
		}
		energies = append(energies, rep.Energy)
		reports = append(reports, rep)
	}
	return energies, reports
}

// TestSessionIncrementalMatchesOracle is the jitter property test: a
// session with ResweepEvery=k (incremental between resweeps) must match
// the ResweepEvery=1 session (every frame fully resummed — the
// from-scratch oracle over the same deterministically evolving structure)
// to 1e-12 relative on every frame, across displacement regimes that
// exercise the pure-dirty path, driver re-derivation, and the
// forced-resweep boundary.
func TestSessionIncrementalMatchesOracle(t *testing.T) {
	mol := molecule.GenerateProtein("stream", 700, 99)
	base := SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	}
	// Per-axis hops stay under (1-rederiveFraction)·MinSlack/√3 ≈ 0.07, so
	// no single frame can jump a driver from inside its re-derivation
	// budget straight past the refresh threshold; compounded cluster drift
	// then reaches the re-derivation band on its own.
	regimes := []struct {
		name    string
		movers  int
		cluster int
		amp     float64
	}{
		{"sub-slack", 7, 16, 0.01}, // drift stays within the budget: pure dirty path
		{"re-derive", 7, 16, 0.06}, // compounds past half-margin: driver re-derivations
		{"mixed", 20, 48, 0.05},    // broad dirty regions, occasional re-derivation
	}
	for _, rg := range regimes {
		rg := rg
		t.Run("f64/"+rg.name, func(t *testing.T) {
			o := base
			frames := jitterFrames(mol, 24, rg.movers, rg.cluster, rg.amp, 7)

			oracle := o
			oracle.ResweepEvery = 1
			incr := o
			incr.ResweepEvery = 8 // frames 8, 16, 24 hit the forced-resweep boundary

			want, _ := runStream(t, mol, oracle, frames)
			got, reports := runStream(t, mol, incr, frames)
			for f := range want {
				rel := math.Abs(got[f]-want[f]) / math.Abs(want[f])
				if rel > 1e-12 {
					t.Fatalf("frame %d: incremental %.17g vs oracle %.17g (rel %.3g > 1e-12)", f, got[f], want[f], rel)
				}
			}
			rederived, refreshed := 0, 0
			for _, rep := range reports {
				rederived += rep.Rederived
				if rep.Refreshed {
					refreshed++
				}
			}
			if rg.name == "re-derive" && rederived == 0 {
				t.Fatalf("re-derive regime never re-derived a driver; slack breach path untested")
			}
			if rg.name == "sub-slack" && (rederived != 0 || refreshed != 0) {
				t.Fatalf("sub-slack regime re-derived %d / refreshed %d; pure dirty path untested", rederived, refreshed)
			}
			for _, rep := range reports {
				if rep.Frame%8 == 0 && !rep.Refreshed && !rep.Resweep {
					t.Fatalf("frame %d should have taken the forced resweep", rep.Frame)
				}
			}
		})
	}
}

// TestSessionRadiusToleranceDrift bounds the accuracy cost of the radius
// staleness gate: a default-tolerance session against a zero-tolerance
// session on the same stream. The gate holds every energy-solver radius
// within RadiusTolerance (relative) of exact, so the energy offset is a
// bounded multiple of it — orders of magnitude below the treecode
// approximation error — and it must never accumulate with frame count.
func TestSessionRadiusToleranceDrift(t *testing.T) {
	mol := molecule.GenerateProtein("rtol", 600, 57)
	o := SessionOptions{
		Surf:         surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:         Options{Threads: 1},
		ResweepEvery: 8,
	}
	frames := jitterFrames(mol, 24, 9, 24, 0.04, 21)

	gated := o // RadiusTolerance 0 -> default 1e-6
	exact := o
	exact.RadiusTolerance = -1
	eg, reps := runStream(t, mol, gated, frames)
	ee, _ := runStream(t, mol, exact, frames)
	for f := range ee {
		rel := math.Abs(eg[f]-ee[f]) / math.Abs(ee[f])
		if rel > 1e-4 {
			t.Fatalf("frame %d: gated %.12g vs exact %.12g (rel %.3g > 1e-4)", f, eg[f], ee[f], rel)
		}
	}
	// The gate must actually suppress pushes, or it is not being tested.
	for _, rep := range reps {
		if rep.MovedAtoms > 0 && !rep.Resweep && !rep.Refreshed && rep.PushedRadii >= mol.N() {
			t.Fatalf("frame %d pushed every radius; tolerance gate inert", rep.Frame)
		}
	}
}

// TestSessionRefreshPath forces displacements large enough to breach an
// internal node's slack margin, which must take the structural-refresh
// path and still match the oracle session (refresh is geometry driven, so
// both sessions refresh on the same frame).
func TestSessionRefreshPath(t *testing.T) {
	mol := molecule.GenerateProtein("refresh", 500, 77)
	o := SessionOptions{
		Surf:        surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval:        Options{Threads: 1},
		SlackFactor: 0.01,
		MinSlack:    0.05, // tight margins so modest jitter forces a refresh
	}
	frames := jitterFrames(mol, 10, 25, 0, 0.5, 3)

	oracle := o
	oracle.ResweepEvery = 1
	incr := o
	incr.ResweepEvery = 4

	want, wantReps := runStream(t, mol, oracle, frames)
	got, gotReps := runStream(t, mol, incr, frames)
	refreshed := 0
	for f := range wantReps {
		if wantReps[f].Refreshed != gotReps[f].Refreshed {
			t.Fatalf("frame %d: refresh divergence (oracle %v, incremental %v) — refresh must be geometry driven", f+1, wantReps[f].Refreshed, gotReps[f].Refreshed)
		}
		if gotReps[f].Refreshed {
			refreshed++
		}
	}
	if refreshed == 0 {
		t.Fatalf("stream never refreshed; structural path untested")
	}
	for f := range want {
		rel := math.Abs(got[f]-want[f]) / math.Abs(want[f])
		if rel > 1e-12 {
			t.Fatalf("frame %d: incremental %.17g vs oracle %.17g (rel %.3g > 1e-12)", f, got[f], want[f], rel)
		}
	}
}

// TestSessionAgreesWithPrepared sanity-checks the session's absolute
// energies against the stateless pipeline. The two legitimately differ at
// treecode-approximation level (the session's slack-inflated lists trade
// far entries for exact near ones, and its surface follows moved atoms
// rigidly instead of being re-sampled), so the tolerance is loose; the
// tight 1e-12 contract lives in the oracle tests above.
func TestSessionAgreesWithPrepared(t *testing.T) {
	mol := molecule.GenerateProtein("sanity", 400, 11)
	so := surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0}
	ss, err := NewSession(mol, SessionOptions{Surf: so, Eval: Options{Threads: 1}})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	p, err := Prepare(NewProblem(mol, so), Options{Threads: 1})
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	rep, err := p.EvalEpol(Options{Threads: 1})
	if err != nil {
		t.Fatalf("EvalEpol: %v", err)
	}
	rel := math.Abs(ss.Energy()-rep.Energy) / math.Abs(rep.Energy)
	if rel > 5e-2 {
		t.Fatalf("session energy %.9g vs prepared %.9g (rel %.3g > 5e-2)", ss.Energy(), rep.Energy, rel)
	}
}

// TestSessionRejectsBadMove pins the validation contract: an out-of-range
// index fails the whole frame and leaves the session untouched.
func TestSessionRejectsBadMove(t *testing.T) {
	mol := molecule.GenerateProtein("bad", 200, 5)
	ss, err := NewSession(mol, SessionOptions{
		Surf: surface.Options{SubdivLevel: 0, Degree: 1, RadiusScale: 1.0},
		Eval: Options{Threads: 1},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	e0, f0 := ss.Energy(), ss.Frame()
	if _, err := ss.Step(FrameDelta{Moves: []AtomMove{{Index: mol.N(), Pos: geom.Vec3{}}}}); err == nil {
		t.Fatalf("Step accepted an out-of-range move")
	}
	if ss.Energy() != e0 || ss.Frame() != f0 {
		t.Fatalf("failed Step mutated the session")
	}
}
