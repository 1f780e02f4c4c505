package main

import (
	"encoding/json"
	"fmt"
	"time"

	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/serve"
)

var coldEnergy = workload{
	name:  "cold-energy",
	why:   "every request misses the cache, so surface, octree and the core Born phase do nearly all the work",
	setup: setupCold,
}

// coldVerifyEvery is the stride of the cold-energy output check: every
// k-th reply is compared with an in-process reference.
const coldVerifyEvery = 4

type coldState struct {
	st   *stack
	seed int64
	sent []sentEnergy
}

// sentEnergy is one /v1/energy request and the energy it was answered
// with.
type sentEnergy struct {
	body   []byte
	energy float64
	ok     bool
}

func setupCold(b *bench) (wlState, error) {
	st, err := bootServer()
	if err != nil {
		return nil, err
	}
	// One cold request on a molecule outside the workload, so that lazy
	// set-up in the server and the client is done before timing starts.
	warm := molecule.GenerateProtein("warmup", scaled(800, b.scale), anchorSeed+99)
	if r := post(b.c, st.url+"/v1/energy", energyBody(warm)); !r.ok() {
		st.shutdown()
		return nil, fmt.Errorf("warm-up request: %v", r)
	}
	return &coldState{st: st, seed: b.opt.seed}, nil
}

func (s *coldState) stack() *stack { return s.st }

// measure sends round after round of distinct proteins from one client,
// finishing the round in progress when the time is up, so that every run
// has the same size mix.
func (s *coldState) measure(b *bench, dur time.Duration, tr *tracer) *pass {
	p := &pass{}
	s.sent = nil
	deadline := time.Now().Add(dur)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		for _, m := range coldRound(s.seed, r, b.scale) {
			body := energyBody(m)
			rep, ms := timedPost(b, tr, s.st.url+"/v1/energy", body)
			sent := sentEnergy{body: body}
			if resp, ok := p.energyReply(rep, ms); ok {
				sent.energy, sent.ok = resp.Energy, true
				p.lat = append(p.lat, ms)
				p.ops++
				p.atoms += float64(m.N())
				p.perSecond += ms / 1e3
			}
			s.sent = append(s.sent, sent)
		}
	}
	return p
}

// energyReply accounts one /v1/energy exchange and decodes its answer.
func (p *pass) energyReply(r reply, rttMS float64) (serve.EnergyResponse, bool) {
	p.attempted++
	var resp serve.EnergyResponse
	if !r.ok() {
		p.fail(false, "energy request: %v", r)
		return resp, false
	}
	if err := json.Unmarshal(r.Body, &resp); err != nil {
		p.fail(true, "energy reply: %v", err)
		return resp, false
	}
	t := resp.Timings
	p.rtt = append(p.rtt, rttMS)
	p.stages = append(p.stages, t.QueueMS+t.SurfaceMS+t.PrepareMS+t.EvalMS)
	p.queue = append(p.queue, t.QueueMS)
	return resp, true
}

func (s *coldState) verify(b *bench, p *pass) float64 {
	for i := 0; i < len(s.sent); i += coldVerifyEvery {
		sent := s.sent[i]
		if !sent.ok {
			continue
		}
		var req serve.EnergyRequest
		if err := json.Unmarshal(sent.body, &req); err != nil {
			p.fail(true, "re-decode request %d: %v", i, err)
			continue
		}
		want, err := referenceEnergy(engine.NewProblem(decodeMolecule(req.Molecule), surfOptions()))
		if err != nil {
			p.fail(true, "reference for request %d: %v", i, err)
			continue
		}
		if err := checkEnergy(fmt.Sprintf("cold request %d", i), sent.energy, want); err != nil {
			p.fail(true, "%v", err)
		}
	}
	return energyAnchors(b, p, s.st.url, []int{500, 1000})
}

// energyAnchors sends the fixed anchor proteins through /v1/energy and
// returns the largest relative error of their energies against Naive on
// the same q-points.
func energyAnchors(b *bench, p *pass, url string, sizes []int) float64 {
	var worst float64
	for i, n := range sizes {
		m := molecule.GenerateProtein(fmt.Sprintf("anchor-%d", i), scaled(n, b.scale), anchorSeed+int64(i))
		p.attempted++
		r := post(b.c, url+"/v1/energy", energyBody(m))
		var resp serve.EnergyResponse
		if !r.ok() {
			p.fail(false, "anchor %d: %v", i, r)
			continue
		}
		if err := json.Unmarshal(r.Body, &resp); err != nil {
			p.fail(true, "anchor %d reply: %v", i, err)
			continue
		}
		naive, err := naiveEnergy(engine.NewProblem(decodeMolecule(serve.FromMolecule(m)), surfOptions()))
		if err != nil {
			p.fail(true, "anchor %d naive: %v", i, err)
			continue
		}
		worst = max(worst, relDiff(resp.Energy, naive))
	}
	return worst
}

// replay repeats the measured requests in order: the server's calls at
// its thread count, then the same Born and E_pol phases serially, call by
// call.
func (s *coldState) replay(b *bench, tr *tracer, ov *overhead, until time.Time, m map[string]float64) {
	t := tally{}
	for i := 0; i < len(s.sent) && (i == 0 || time.Now().Before(until)); i++ {
		ov.pair(tr, t, func(tr *tracer, t tally) { replayCold(tr, s.sent[i].body, t) })
	}
	t.into(m)
}

func replayCold(tr *tracer, body []byte, t tally) {
	root := tr.begin("op.cold", nil)
	defer root.end()
	var req serve.EnergyRequest
	var mol *molecule.Molecule
	decodeInto(tr, root, body, &req, func() { mol = decodeMolecule(req.Molecule) })
	hashMolecules(tr, root, mol)
	prep := engineProblem(tr, root, mol)
	e := engineEval(tr, root, prep, 1, true, t)
	encode(tr, root, serve.EnergyResponse{Name: mol.Name, Atoms: mol.N(), Energy: e, Cache: "miss", Engine: engine.OctCilk.String()})
	serial := tr.begin("bench.serial", root)
	bs, radii := serialBorn(tr, serial, mol, nil, t)
	serialEpol(tr, serial, bs, mol, radii, t)
	serial.end()
}

// timedPost sends one request and returns its reply and latency in ms.
// With a tracer it records the operation as a client.request span.
func timedPost(b *bench, tr *tracer, url string, body []byte) (reply, float64) {
	sp := tr.begin("client.request", nil)
	t0 := time.Now()
	r := post(b.c, url, body)
	ms := msSince(t0)
	sp.end()
	return r, ms
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
