package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

var dockingSweep = workload{
	name:  "docking-sweep",
	why:   "octree builds and the Born phase run on every pose, but each part's surface is sampled once and poses are composed from it",
	setup: setupSweep,
}

// sweepPoses is the number of translation poses per /v1/sweep request: the
// sweep class of traces/steady-mixed.json.
const sweepPoses = 2

// sweepVerifyEvery is the stride of the sweep output check; it is coprime
// with the number of pairs (3), so every pair is checked.
const sweepVerifyEvery = 8

type sweepState struct {
	st    *stack
	seed  int64
	pairs []dockPair
	sent  []sentSweep
}

type sentSweep struct {
	body     []byte
	energies []float64
	ok       bool
}

func setupSweep(b *bench) (wlState, error) {
	st, err := bootServer()
	if err != nil {
		return nil, err
	}
	s := &sweepState{st: st, seed: b.opt.seed, pairs: dockPairs(b.opt.seed, b.scale)}
	// One single-pose sweep per pair: the server samples and prepares each
	// receptor and ligand once, here, so the measured requests compose
	// every pose from cached parts.
	for i, p := range s.pairs {
		if r := post(b.c, st.url+"/v1/sweep", mustJSON(sweepRequest(s.seed, p, -1-i, 1))); !r.ok() {
			st.shutdown()
			return nil, fmt.Errorf("warm-up sweep for pair %d: %v", i, r)
		}
	}
	return s, nil
}

func (s *sweepState) stack() *stack { return s.st }

// measure sends sweep requests from one client, cycling through the pairs
// and finishing the cycle in progress when the time is up.
func (s *sweepState) measure(b *bench, dur time.Duration, tr *tracer) *pass {
	p := &pass{}
	s.sent = nil
	deadline := time.Now().Add(dur)
	for i := 0; i%len(s.pairs) != 0 || i == 0 || time.Now().Before(deadline); i++ {
		pair := s.pairs[i%len(s.pairs)]
		body := mustJSON(sweepRequest(s.seed, pair, i, sweepPoses))
		rep, ms := timedPost(b, tr, s.st.url+"/v1/sweep", body)
		sent := sentSweep{body: body}
		p.attempted++
		var resp serve.SweepResponse
		switch {
		case !rep.ok():
			p.fail(false, "sweep request %d: %v", i, rep)
		case json.Unmarshal(rep.Body, &resp) != nil || len(resp.Energies) != sweepPoses:
			p.fail(true, "sweep request %d: malformed reply %.200s", i, rep.Body)
		default:
			sent.energies, sent.ok = resp.Energies, true
			t := resp.Timings
			p.lat = append(p.lat, ms)
			p.ops += sweepPoses
			p.atoms += float64(sweepPoses * (pair.Rec.N() + pair.Lig.N()))
			p.perSecond += ms / 1e3
			p.rtt = append(p.rtt, ms)
			p.stages = append(p.stages, t.QueueMS+t.SurfaceMS+t.PrepareMS+t.EvalMS)
			p.queue = append(p.queue, t.QueueMS)
			p.batchPoses = append(p.batchPoses, float64(resp.BatchPoses))
		}
		s.sent = append(s.sent, sent)
	}
	return p
}

// parts holds a decoded pair with each part's sampled surface, as the
// server caches them.
type parts struct {
	rec, lig   *molecule.Molecule
	recQ, ligQ []surface.QPoint
}

func decodeParts(req serve.SweepRequest) parts {
	pt := parts{rec: decodeMolecule(*req.Receptor), lig: decodeMolecule(req.Ligand)}
	pt.recQ = surface.Sample(pt.rec, surfOptions())
	pt.ligQ = surface.Sample(pt.lig, surfOptions())
	return pt
}

// poseProblem is the surface.ComposePose reference for one pose.
func (pt parts) poseProblem(pose serve.PoseJSON) (*engine.Problem, error) {
	cx, q, err := surface.ComposePose("complex", pt.rec, pt.recQ, pt.lig, pt.ligQ, pose.ToRigid(), surfOptions())
	if err != nil {
		return nil, err
	}
	return engine.NewProblemFromSurface(cx, q), nil
}

func (s *sweepState) verify(b *bench, p *pass) float64 {
	cache := map[int]parts{}
	for i := 0; i < len(s.sent); i += sweepVerifyEvery {
		if !s.sent[i].ok {
			continue
		}
		var req serve.SweepRequest
		if err := json.Unmarshal(s.sent[i].body, &req); err != nil {
			p.fail(true, "re-decode sweep %d: %v", i, err)
			continue
		}
		k := i % len(s.pairs)
		if _, ok := cache[k]; !ok {
			cache[k] = decodeParts(req)
		}
		for j, pose := range req.Poses {
			pr, err := cache[k].poseProblem(pose)
			if err == nil {
				var want float64
				if want, err = referenceEnergy(pr); err == nil {
					err = checkEnergy(fmt.Sprintf("sweep %d pose %d", i, j), s.sent[i].energies[j], want)
				}
			}
			if err != nil {
				p.fail(true, "%v", err)
				break
			}
		}
	}
	return s.anchor(b, p)
}

// anchor sends one pose of a fixed pair and returns its energy's relative
// error against Naive on the composed complex's q-points.
func (s *sweepState) anchor(b *bench, p *pass) float64 {
	pair := dockPair{
		Rec: molecule.GenerateProtein("anchor-rec", scaled(800, b.scale), anchorSeed+10),
		Lig: molecule.GenerateProtein("anchor-lig", scaled(150, b.scale), anchorSeed+11),
	}
	rec := serve.FromMolecule(pair.Rec)
	req := serve.SweepRequest{Receptor: &rec, Ligand: serve.FromMolecule(pair.Lig),
		Poses: []serve.PoseJSON{serve.FromRigid(contactPoses(pair, rand.New(rand.NewSource(anchorSeed)), 1)[0])}}
	p.attempted++
	r := post(b.c, s.st.url+"/v1/sweep", mustJSON(req))
	var resp serve.SweepResponse
	if !r.ok() || json.Unmarshal(r.Body, &resp) != nil || len(resp.Energies) != 1 {
		p.fail(!r.ok(), "anchor sweep: %v", r)
		return 0
	}
	pr, err := decodeParts(req).poseProblem(req.Poses[0])
	var naive float64
	if err == nil {
		naive, err = naiveEnergy(pr)
	}
	if err != nil {
		p.fail(true, "anchor sweep reference: %v", err)
		return 0
	}
	return relDiff(resp.Energies[0], naive)
}

// replay repeats the measured sweeps as the server runs a batch: the cached
// parts' energies, one PoseComposer per request, and per pose the composed
// surface, problem, Born phase and E_pol; the first pose of each request is
// also decomposed into its octree and core calls.
func (s *sweepState) replay(b *bench, tr *tracer, ov *overhead, until time.Time, m map[string]float64) {
	t := tally{}
	cache := map[int]cachedParts{}
	for i := 0; i < len(s.sent) && (i == 0 || time.Now().Before(until)); i++ {
		k := i % len(s.pairs)
		if _, ok := cache[k]; !ok {
			var req serve.SweepRequest
			if err := json.Unmarshal(s.sent[i].body, &req); err != nil {
				panic(fmt.Sprintf("re-decode sweep %d: %v", i, err)) // the benchmark encoded it
			}
			pt := decodeParts(req)
			cache[k] = cachedParts{pt,
				enginePrepare(nil, nil, engine.NewProblemFromSurface(pt.rec, pt.recQ)),
				enginePrepare(nil, nil, engine.NewProblemFromSurface(pt.lig, pt.ligQ))}
		}
		c := cache[k]
		ov.pair(tr, t, func(tr *tracer, t tally) { replaySweep(tr, s.sent[i].body, c, t) })
	}
	t.into(m)
}

// cachedParts is a pair as the server's cache holds it: each part's
// surface and prepared problem.
type cachedParts struct {
	parts
	recP, ligP *engine.Prepared
}

func replaySweep(tr *tracer, body []byte, c cachedParts, t tally) {
	root := tr.begin("op.sweep", nil)
	defer root.end()
	var req serve.SweepRequest
	var rec, lig *molecule.Molecule
	decodeInto(tr, root, body, &req, func() {
		rec, lig = decodeMolecule(*req.Receptor), decodeMolecule(req.Ligand)
	})
	hashMolecules(tr, root, rec, lig)
	eLig := engineEval(tr, root, c.ligP, 1, false, t)
	eRec := engineEval(tr, root, c.recP, 1, false, t)
	var pc *surface.PoseComposer
	tr.do("surface.compose_setup", root, func() {
		pc = surface.NewPoseComposer(c.rec, c.recQ, c.lig, c.ligQ, surfOptions(), nil)
	})
	resp := serve.SweepResponse{Poses: len(req.Poses), ReceptorEnergy: eRec, LigandEnergy: eLig}
	for j, pose := range req.Poses {
		var cx *molecule.Molecule
		var q []surface.QPoint
		var err error
		tr.do("surface.compose", root, func() { cx, q, err = pc.Compose("complex", pose.ToRigid()) })
		if err != nil {
			panic(fmt.Sprintf("compose pose: %v", err)) // the server composed the same pose
		}
		var pr *engine.Problem
		tr.do("engine.new_problem", root, func() { pr = engine.NewProblemFromSurface(cx, q) })
		e := engineEval(tr, root, enginePrepare(tr, root, pr), 1, true, t)
		resp.Energies = append(resp.Energies, e)
		resp.Deltas = append(resp.Deltas, e-eRec-eLig)
		if j == 0 {
			serial := tr.begin("bench.serial", root)
			bs, radii := serialBorn(tr, serial, cx, q, t)
			serialEpol(tr, serial, bs, cx, radii, t)
			serial.end()
		}
	}
	encode(tr, root, resp)
}
