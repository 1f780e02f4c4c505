package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/serve"
)

// Every input is a pure function of the workload seed: the same seed gives
// byte-identical request bodies (pinned by TestBodiesPinnedBySeed).

// subSeed derives an independent generator seed for one input from the
// workload seed, an input family and an index (splitmix64 finalizer).
func subSeed(seed int64, family, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(family)<<32 + uint64(index)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// Input families, so that no two inputs share a generator seed.
const (
	famColdOrder = iota + 1
	famColdMol
	famHotMol
	famArrivals
	famPair
	famPose
	famStreamMol
	famFrames
)

// anchorSeed is the fixed seed of the molecules epol_rel_err is measured
// on: they are the same in every run, so the error they show does not
// depend on the workload seed.
const anchorSeed = 20120101

// coldSizes are the protein sizes of one cold-energy round: the lower half
// of a 14-entry log-spaced suite over the paper's ZDock range (400 to
// 16,301 atoms), so every round has the same size mix. The count is odd so
// that the median request falls inside one size class, not between two.
func coldSizes(scale float64) []int {
	suite := molecule.ZDockLikeSuite(14)[:7]
	out := make([]int, len(suite))
	for i, e := range suite {
		out[i] = scaled(e.Atoms, scale)
	}
	return out
}

func scaled(n int, scale float64) int {
	return max(24, int(math.Round(float64(n)*scale)))
}

// coldRound returns round r of the cold-energy workload: one distinct
// protein per size, in a seeded order.
func coldRound(seed int64, r int, scale float64) []*molecule.Molecule {
	sizes := coldSizes(scale)
	order := rand.New(rand.NewSource(subSeed(seed, famColdOrder, r))).Perm(len(sizes))
	out := make([]*molecule.Molecule, len(sizes))
	for k, j := range order {
		idx := r*len(sizes) + k
		out[k] = molecule.GenerateProtein(fmt.Sprintf("cold-%d", idx), sizes[j], subSeed(seed, famColdMol, idx))
	}
	return out
}

// The warm-routed hot proteins have the size of the energy class of the
// repository's committed load trace, traces/steady-mixed.json: 2,000
// atoms. The trace has 2 variants; the hot set has 9, because with 2 the
// capacity a run measures depends on whether the seed puts both
// molecules' primaries on one worker of the ring or on different ones;
// with 9 the placements average out.
const (
	hotAtoms    = 2000
	hotVariants = 9
)

func hotSet(seed int64, scale float64) []*molecule.Molecule {
	out := make([]*molecule.Molecule, hotVariants)
	for i := range out {
		out[i] = molecule.GenerateProtein(fmt.Sprintf("hot-%d", i), scaled(hotAtoms, scale), subSeed(seed, famHotMol, i))
	}
	return out
}

// arrival is one open-loop request: when it is due (offset from the start
// of the phase) and which hot molecule it carries.
type arrival struct {
	DueNS int64
	Mol   int
}

// poissonSchedule draws arrivals at rate per second over dur seconds, each
// carrying a uniformly chosen one of nMol molecules.
func poissonSchedule(seed int64, rate, dur float64, nMol int) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, famArrivals, 0)))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur {
			return out
		}
		out = append(out, arrival{DueNS: int64(t * 1e9), Mol: rng.Intn(nMol)})
	}
}

// dockPair is one receptor–ligand pair of the docking sweep.
type dockPair struct {
	Rec, Lig *molecule.Molecule
}

// dockPairs builds the docking pairs from the cold-energy sizes (the
// lower half of the paper's ZDock range), as docking complexes pair two
// proteins of that suite: the largest receptor with the smallest ligand,
// the second largest with the second smallest, and so on. The median size
// is left over, so there are 3 pairs.
func dockPairs(seed int64, scale float64) []dockPair {
	sizes := coldSizes(scale)
	out := make([]dockPair, len(sizes)/2)
	for i := range out {
		out[i] = dockPair{
			Rec: molecule.GenerateProtein(fmt.Sprintf("rec-%d", i), sizes[len(sizes)-1-i], subSeed(seed, famPair, 2*i)),
			Lig: molecule.GenerateProtein(fmt.Sprintf("lig-%d", i), sizes[i], subSeed(seed, famPair, 2*i+1)),
		}
	}
	return out
}

// contactPoses returns n pure translations that place the ligand's
// centroid on a random direction around the receptor, at a distance where
// the two bounding spheres touch give or take a couple of ångströms.
func contactPoses(p dockPair, rng *rand.Rand, n int) []geom.Rigid {
	rc, lc := p.Rec.Centroid(), p.Lig.Centroid()
	reach := radius(p.Rec, rc) + radius(p.Lig, lc)
	out := make([]geom.Rigid, n)
	for i := range out {
		dir := geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Unit()
		d := reach + 4*rng.Float64() - 2
		out[i] = geom.Translation(rc.Add(dir.Scale(d)).Sub(lc))
	}
	return out
}

func radius(m *molecule.Molecule, c geom.Vec3) float64 {
	var r float64
	for _, a := range m.Atoms {
		r = max(r, a.Pos.Dist(c))
	}
	return r
}

// sweepRequest is a /v1/sweep request for pair p whose poses are drawn
// from the generator of request index i.
func sweepRequest(seed int64, p dockPair, i, poses int) serve.SweepRequest {
	rng := rand.New(rand.NewSource(subSeed(seed, famPose, i)))
	rec := serve.FromMolecule(p.Rec)
	req := serve.SweepRequest{Receptor: &rec, Ligand: serve.FromMolecule(p.Lig)}
	for _, pose := range contactPoses(p, rng, poses) {
		req.Poses = append(req.Poses, serve.FromRigid(pose))
	}
	return req
}

// The md-stream sessions follow the stream class of
// traces/steady-mixed.json: a 600-atom molecule, 3 frames per session, 2
// moved atoms per frame.
const (
	streamAtoms  = 600
	streamLife   = 3
	streamMovers = 2
)

func streamMolecule(seed int64, session int, scale float64) *molecule.Molecule {
	return molecule.GenerateProtein(fmt.Sprintf("md-%d", session), scaled(streamAtoms, scale), subSeed(seed, famStreamMol, session))
}

// streamFrames returns the frames of one session. Each frame moves
// streamMovers atoms: a random atom and its nearest neighbours, as a side
// chain moves in MD. Every mover goes to a seeded offset of at most 0.1 Å
// per axis from its starting position, so positions jitter without
// drifting.
func streamFrames(seed int64, session int, mol *molecule.Molecule, frames int) []serve.StreamFrameRequest {
	rng := rand.New(rand.NewSource(subSeed(seed, famFrames, session)))
	movers := min(streamMovers, mol.N())
	byDist := make([]int, mol.N())
	out := make([]serve.StreamFrameRequest, frames)
	for f := range out {
		c := mol.Atoms[rng.Intn(mol.N())].Pos
		for i := range byDist {
			byDist[i] = i
		}
		sort.SliceStable(byDist, func(a, b int) bool {
			return mol.Atoms[byDist[a]].Pos.Dist2(c) < mol.Atoms[byDist[b]].Pos.Dist2(c)
		})
		moves := make([]serve.MoveJSON, movers)
		for k := range moves {
			i := byDist[k]
			p := mol.Atoms[i].Pos
			moves[k] = serve.MoveJSON{I: i, Pos: [3]float64{
				p.X + 0.2*rng.Float64() - 0.1,
				p.Y + 0.2*rng.Float64() - 0.1,
				p.Z + 0.2*rng.Float64() - 0.1,
			}}
		}
		out[f] = serve.StreamFrameRequest{Moves: moves}
	}
	return out
}

func energyBody(m *molecule.Molecule) []byte {
	return mustJSON(serve.EnergyRequest{Molecule: serve.FromMolecule(m)})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode %T: %v", v, err)) // only plain data types are encoded
	}
	return b
}
