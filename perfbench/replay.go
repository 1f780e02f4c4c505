package main

import (
	"encoding/json"
	"fmt"

	"octgb/internal/core"
	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/octree"
	"octgb/internal/sched"
	"octgb/internal/surface"
)

// The replay helpers below call each layer's public functions the way the
// server does for one operation, with a span around every call. Results
// go to package-level sinks so no call can be optimized away.
var (
	sinkTree  *octree.Tree
	sinkFloat float64
	sinkBytes []byte
	sinkHash  [molecule.HashSize]byte
)

// decodeInto is serve's request decoding: JSON into the request type, then
// MoleculeJSON.ToMolecule for every molecule it carries (inside fn).
func decodeInto(tr *tracer, parent *scope, body []byte, req any, fn func()) {
	tr.do("serve.decode", parent, func() {
		if err := json.Unmarshal(body, req); err != nil {
			panic(fmt.Sprintf("decode generated %T: %v", req, err)) // the benchmark encoded it
		}
		fn()
	})
}

func encode(tr *tracer, parent *scope, resp any) {
	tr.do("serve.encode", parent, func() { sinkBytes = mustJSON(resp) })
}

func hashMolecules(tr *tracer, parent *scope, mols ...*molecule.Molecule) {
	tr.do("molecule.hash", parent, func() {
		for _, m := range mols {
			sinkHash = m.Hash()
		}
	})
}

// engineProblem is the server's cold path up to the Born radii:
// engine.NewProblem (which samples the surface) and engine.Prepare, at the
// server's thread count.
func engineProblem(tr *tracer, parent *scope, mol *molecule.Molecule) *engine.Prepared {
	var pr *engine.Problem
	tr.do("engine.new_problem", parent, func() { pr = engine.NewProblem(mol, surfOptions()) })
	return enginePrepare(tr, parent, pr)
}

func enginePrepare(tr *tracer, parent *scope, pr *engine.Problem) *engine.Prepared {
	var p *engine.Prepared
	var err error
	tr.do("engine.prepare", parent, func() { p, err = engine.Prepare(pr, evalOptions(1)) })
	if err != nil {
		panic(fmt.Sprintf("engine.Prepare: %v", err)) // the same call served this input
	}
	return p
}

// engineEval is engine.EvalEpol on a prepared problem. With cold set, the
// scheduler counts of the Born phase are charged to this operation too.
func engineEval(tr *tracer, parent *scope, p *engine.Prepared, servers int, cold bool, t tally) float64 {
	var rep engine.RealReport
	var err error
	tr.do("engine.eval_epol", parent, func() { rep, err = p.EvalEpol(evalOptions(servers)) })
	if err != nil {
		panic(fmt.Sprintf("engine.EvalEpol: %v", err)) // the same call served this input
	}
	s := rep.Sched
	if !cold {
		b := p.BornSched
		s = sched.Stats{Executed: s.Executed - b.Executed, Steals: s.Steals - b.Steals,
			FailedSteals: s.FailedSteals - b.FailedSteals, Parks: s.Parks - b.Parks}
	}
	addSched(t, s)
	return rep.Energy
}

func addSched(t tally, s sched.Stats) {
	t.add("sched.executed", float64(s.Executed))
	t.add("sched.steals", float64(s.Steals))
	t.add("sched.failed_steals", float64(s.FailedSteals))
	t.add("sched.parks", float64(s.Parks))
	if n := s.Steals + s.FailedSteals; n > 0 {
		t.add("sched.steal_success", float64(s.Steals)/float64(n))
	}
}

// serialBorn is the serial decomposition of the server's Born phase into
// the surface, octree and core calls it is made of, at the solver's leaf
// size. With qpts nil it samples the surface first. It returns the solver
// and the Born radii in original order.
func serialBorn(tr *tracer, parent *scope, mol *molecule.Molecule, qpts []surface.QPoint, t tally) (*core.BornSolver, []float64) {
	if qpts == nil {
		tr.do("surface.sample", parent, func() { qpts = surface.Sample(mol, surfOptions()) })
	}
	t.add("surface.qpoints_per_atom", float64(len(qpts))/float64(mol.N()))
	treeBuilds(tr, parent, mol, qpts)
	eo := evalOptions(1)
	var bs *core.BornSolver
	tr.do("core.born_setup", parent, func() {
		bs = core.NewBornSolver(mol, qpts, core.BornConfig{Eps: eo.BornEps, LeafSize: eo.LeafSize, Precision: eo.Precision})
	})
	var l *core.InteractionList
	tr.do("core.born_list", parent, func() { l = bs.BuildBornDualList() })
	st := l.Stats()
	t.add("core.born_near_pairs", float64(st.NearPairs))
	t.add("core.born_far_evals", float64(st.FarEval))
	sNode, sAtom := bs.NewAccumulators()
	tr.do("core.born_eval", parent, func() {
		bs.EvalBornFarRange(l, 0, len(l.Far), sNode)
		bs.EvalBornNearRange(l, 0, len(l.Near), sAtom)
	})
	var radii []float64
	tr.do("core.push", parent, func() {
		r := make([]float64, mol.N())
		bs.PushIntegrals(sNode, sAtom, 0, int32(mol.N()), r)
		radii = bs.RadiiToOriginal(r)
	})
	return bs, radii
}

// treeBuilds times octree.Build over the atoms (T_A) and the q-points
// (T_Q) at the solver's leaf size, as core.NewBornSolver calls it.
func treeBuilds(tr *tracer, parent *scope, mol *molecule.Molecule, qpts []surface.QPoint) {
	apos := make([]geom.Vec3, mol.N())
	for i, a := range mol.Atoms {
		apos[i] = a.Pos
	}
	tr.do("octree.build_ta", parent, func() { sinkTree = octree.Build(apos, octree.DefaultLeafSize) })
	tr.do("octree.build_tq", parent, func() { sinkTree = octree.Build(surface.Positions(qpts), octree.DefaultLeafSize) })
}

// serialEpol is the serial decomposition of the server's E_pol phase over
// the Born solver's atoms tree.
func serialEpol(tr *tracer, parent *scope, bs *core.BornSolver, mol *molecule.Molecule, radii []float64, t tally) {
	eo := evalOptions(1)
	charges := make([]float64, mol.N())
	for i, a := range mol.Atoms {
		charges[i] = a.Charge
	}
	var es *core.EpolSolver
	tr.do("core.epol_setup", parent, func() {
		es = core.NewEpolSolver(bs.TA, charges, radii, core.EpolConfig{Eps: eo.EpolEps, Math: eo.Math, Precision: eo.Precision})
	})
	var l *core.InteractionList
	tr.do("core.epol_list", parent, func() { l = es.BuildEpolDualList() })
	st := l.Stats()
	t.add("core.epol_near_pairs", float64(st.NearPairs))
	t.add("core.epol_far_evals", float64(st.FarEval))
	tr.do("core.epol_eval", parent, func() {
		sinkFloat = es.EvalEpolNearRange(l, 0, len(l.Near)) + es.EvalEpolFarRange(l, 0, len(l.Far))
	})
}
