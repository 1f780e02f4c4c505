package main

import (
	"fmt"
	"runtime"
	"time"

	"octgb/internal/core"
	"octgb/internal/engine"
	"octgb/internal/fabric"
	"octgb/internal/molecule"
	"octgb/internal/serve"
)

var warmRouted = workload{
	name:  "warm-routed",
	why:   "every request hits the cache, so serve, the fabric hop, core E_pol and sched do the work while surface and octree do none",
	setup: setupWarm,
}

// warmRate is the fixed open-loop arrival rate (requests per second), an
// eighth of the ~65 req/s the capacity phase reaches on a 2-core machine,
// so the latency it measures is service time plus ordinary queueing, not
// a growing backlog.
const warmRate = 8

// warmWorkers is the number of engine workers behind the router.
const warmWorkers = 2

// warmOpenShare is the share of the run spent at the fixed rate; the rest
// is the closed-loop capacity phase.
const warmOpenShare = 0.6

type warmState struct {
	st     *stack
	seed   int64
	hot    []*molecule.Molecule
	bodies [][]byte
	// answers are the energies of every successful reply, by hot molecule.
	answers [][]float64
	sched   []arrival
}

func setupWarm(b *bench) (wlState, error) {
	st, err := bootFabric(warmWorkers)
	if err != nil {
		return nil, err
	}
	s := &warmState{st: st, seed: b.opt.seed, hot: hotSet(b.opt.seed, b.scale)}
	for _, m := range s.hot {
		s.bodies = append(s.bodies, energyBody(m))
	}
	// Warm every hot molecule on both of its ring replicas, then prime the
	// router (connections, latency histograms) with two routed passes.
	ring := st.router.Membership().Ring()
	for i, m := range s.hot {
		key := fabric.KeyHash(decodeMolecule(serve.FromMolecule(m)).Hash())
		for _, id := range ring.Owners(key, fabric.DefaultReplicas) {
			if r := post(b.c, st.workerURL[id]+"/v1/energy", s.bodies[i]); !r.ok() {
				st.shutdown()
				return nil, fmt.Errorf("warm hot molecule %d on %s: %v", i, id, r)
			}
		}
	}
	for k := 0; k < 2; k++ {
		for i := range s.bodies {
			if r := post(b.c, st.url+"/v1/energy", s.bodies[i]); !r.ok() {
				st.shutdown()
				return nil, fmt.Errorf("routed warm-up %d: %v", i, r)
			}
		}
	}
	return s, nil
}

func (s *warmState) stack() *stack { return s.st }

func (s *warmState) record(p *pass, mol int, r reply, rttMS float64) bool {
	resp, ok := p.energyReply(r, rttMS)
	if ok {
		s.answers[mol] = append(s.answers[mol], resp.Energy)
	}
	return ok
}

// measure runs the fixed-rate open loop, then the closed-loop capacity
// phase with nproc clients.
func (s *warmState) measure(b *bench, dur time.Duration, tr *tracer) *pass {
	p := &pass{}
	s.answers = make([][]float64, len(s.hot))
	clients := runtime.NumCPU()
	open := time.Duration(float64(dur) * warmOpenShare)
	s.sched = poissonSchedule(s.seed, warmRate, open.Seconds(), len(s.hot))
	res := openLoop(clients, s.sched, func(a arrival) reply {
		r, _ := timedPost(b, tr, s.st.url+"/v1/energy", s.bodies[a.Mol])
		return r
	})
	for _, o := range res {
		if s.record(p, o.Arrival.Mol, o.Reply, o.LatencyMS-o.LateMS) {
			p.lat = append(p.lat, o.LatencyMS)
			p.late = append(p.late, o.LateMS)
		}
	}

	type done struct {
		mol int
		r   reply
		ms  float64
	}
	per := make([][]done, clients)
	start := time.Now()
	stop := start.Add(dur - open)
	closedLoop(clients, func() bool { return time.Now().After(stop) }, func(w, i int) {
		mol := (i*clients + w) % len(s.hot)
		r, ms := timedPost(b, tr, s.st.url+"/v1/energy", s.bodies[mol])
		per[w] = append(per[w], done{mol, r, ms})
	})
	wall := time.Since(start).Seconds()
	for _, ds := range per {
		for _, d := range ds {
			if s.record(p, d.mol, d.r, d.ms) {
				p.ops++
				p.atoms += float64(s.hot[d.mol].N())
			}
		}
	}
	p.perSecond = wall
	return p
}

func (s *warmState) verify(b *bench, p *pass) float64 {
	for i, m := range s.hot {
		if len(s.answers[i]) == 0 {
			continue
		}
		want, err := referenceEnergy(engine.NewProblem(decodeMolecule(serve.FromMolecule(m)), surfOptions()))
		if err != nil {
			p.fail(true, "reference for hot molecule %d: %v", i, err)
			continue
		}
		for _, got := range s.answers[i] {
			if err := checkEnergy(fmt.Sprintf("hot molecule %d", i), got, want); err != nil {
				p.fail(true, "%v", err)
				break
			}
		}
	}
	return energyAnchors(b, p, s.st.url, []int{500})
}

// replay repeats the open-loop request sequence as warm evaluations on
// prepared problems (the cache hit path), then measures the router hop.
func (s *warmState) replay(b *bench, tr *tracer, ov *overhead, until time.Time, m map[string]float64) {
	t := tally{}
	type warmPrep struct {
		mol   *molecule.Molecule
		prep  *engine.Prepared
		bs    *core.BornSolver
		radii []float64
	}
	preps := make([]warmPrep, len(s.hot))
	for i, h := range s.hot {
		mol := decodeMolecule(serve.FromMolecule(h))
		bs, radii := serialBorn(nil, nil, mol, nil, tally{})
		preps[i] = warmPrep{mol, engineProblem(nil, nil, mol), bs, radii}
	}
	half := time.Now().Add(time.Until(until) / 2)
	for i := 0; i < len(s.sched) && (i == 0 || time.Now().Before(half)); i++ {
		k := s.sched[i].Mol
		ov.pair(tr, t, func(tr *tracer, t tally) {
			root := tr.begin("op.warm", nil)
			defer root.end()
			var req serve.EnergyRequest
			var mol *molecule.Molecule
			decodeInto(tr, root, s.bodies[k], &req, func() { mol = decodeMolecule(req.Molecule) })
			hashMolecules(tr, root, mol)
			e := engineEval(tr, root, preps[k].prep, warmWorkers, false, t)
			encode(tr, root, serve.EnergyResponse{Name: mol.Name, Atoms: mol.N(), Energy: e, Cache: "hit", Engine: engine.OctCilk.String()})
			serial := tr.begin("bench.serial", root)
			serialEpol(tr, serial, preps[k].bs, preps[k].mol, preps[k].radii, t)
			serial.end()
		})
	}
	t.into(m)
	m["fabric.hop_ms"] = s.hop(b, until)
}

// hop measures the router's cost: each hot request is sent through the
// router, then straight to the worker that answered it, and the hop is the
// median of the differences.
func (s *warmState) hop(b *bench, until time.Time) float64 {
	var diffs []float64
	for i := 0; i < 10 || (i < 400 && time.Now().Before(until)); i++ {
		body := s.bodies[i%len(s.bodies)]
		t0 := time.Now()
		routed := post(b.c, s.st.url+"/v1/energy", body)
		rms := msSince(t0)
		url, ok := s.st.workerURL[routed.Worker]
		if !routed.ok() || !ok {
			continue
		}
		t1 := time.Now()
		direct := post(b.c, url+"/v1/energy", body)
		dms := msSince(t1)
		if direct.ok() {
			diffs = append(diffs, rms-dms)
		}
	}
	if len(diffs) == 0 {
		return 0
	}
	return median(diffs)
}
