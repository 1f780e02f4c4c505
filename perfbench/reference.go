package main

import (
	"fmt"
	"math"

	"octgb/internal/core"
	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

// refTol is the relative tolerance of every output check: the server's
// energies must match an in-process evaluation of the same inputs to
// 1e-12. The comparison is not bitwise because the last bit of a parallel
// reduction still depends on the steal schedule.
const refTol = 1e-12

// evalOptions are the engine options each of servers servers built by
// serverConfig passes for a request without options. Energies do not
// depend on the thread count beyond the last bits refTol allows for, so
// references use a lone server's options.
func evalOptions(servers int) engine.Options {
	_, t := slots(servers)
	return engine.Options{Threads: t, BornEps: 0.9, EpolEps: 0.9, Precision: core.Float64}
}

func surfOptions() surface.Options { return serverConfig(1).Surface }

// decodeMolecule turns a wire molecule back into the molecule the server
// evaluates, so references see bitwise the same atoms.
func decodeMolecule(mj serve.MoleculeJSON) *molecule.Molecule {
	m, err := mj.ToMolecule()
	if err != nil {
		panic(fmt.Sprintf("generated molecule is invalid: %v", err)) // generators only emit valid molecules
	}
	return m
}

// referenceEnergy is the in-process Prepare + EvalEpol reference for a
// /v1/energy request.
func referenceEnergy(pr *engine.Problem) (float64, error) {
	p, err := engine.Prepare(pr, evalOptions(1))
	if err != nil {
		return 0, err
	}
	rep, err := p.EvalEpol(evalOptions(1))
	return rep.Energy, err
}

// naiveEnergy is the exact quadratic reference on the problem's q-points.
func naiveEnergy(pr *engine.Problem) (float64, error) {
	rep, err := engine.RunReal(pr, engine.Naive, engine.Options{Threads: 1})
	return rep.Energy, err
}

func relDiff(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// checkEnergy reports a wrong answer as an error.
func checkEnergy(what string, got, want float64) error {
	if d := relDiff(got, want); !(d <= refTol) {
		return fmt.Errorf("%s: energy %.17g, reference %.17g (rel diff %.3g > %g)", what, got, want, d, refTol)
	}
	return nil
}
