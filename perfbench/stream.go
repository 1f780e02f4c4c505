package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"octgb/internal/engine"
	"octgb/internal/geom"
	"octgb/internal/molecule"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

var mdStream = workload{
	name:  "md-stream",
	why:   "frames recompute only the entries moved atoms touch; tree and list builds run only when a session is created",
	setup: setupStream,
}

const (
	// streamClients is the number of concurrent sessions, one per client.
	streamClients = 2
	// streamVerifyEvery is the stride of the frame check: every frame of
	// every k-th session is checked.
	streamVerifyEvery = 8
)

type streamState struct {
	st       *stack
	seed     int64
	sessions map[int]*sentSession // by session index; absent where the create failed
}

// sentSession is one session as the client drove it.
type sentSession struct {
	create   []byte
	frames   []serve.StreamFrameRequest
	initial  float64   // energy the create reply carried
	energies []float64 // energy of every answered frame, in order
}

func setupStream(b *bench) (wlState, error) {
	st, err := bootServer()
	if err != nil {
		return nil, err
	}
	// Open, step and close one session outside the workload, so that lazy
	// set-up is done before timing starts.
	mol := molecule.GenerateProtein("warmup", scaled(400, b.scale), anchorSeed+98)
	sid, _, err := createSession(b, nil, st.url, mustJSON(serve.StreamCreateRequest{Molecule: serve.FromMolecule(mol)}))
	if err == nil {
		for _, f := range streamFrames(anchorSeed, 0, mol, 2) {
			if r := post(b.c, st.url+"/v1/stream/"+sid+"/frame", mustJSON(f)); !r.ok() {
				err = fmt.Errorf("warm-up frame: %v", r)
				break
			}
		}
		if r := send(b.c, http.MethodDelete, st.url+"/v1/stream/"+sid, nil); err == nil && !r.ok() {
			err = fmt.Errorf("warm-up close: %v", r)
		}
	}
	if err != nil {
		st.shutdown()
		return nil, err
	}
	return &streamState{st: st, seed: b.opt.seed}, nil
}

func (s *streamState) stack() *stack { return s.st }

// createSession opens a session and returns its ID and create reply.
func createSession(b *bench, tr *tracer, url string, body []byte) (string, serve.StreamCreateResponse, error) {
	var resp serve.StreamCreateResponse
	r, _ := timedPost(b, tr, url+"/v1/stream", body)
	if !r.ok() {
		return "", resp, fmt.Errorf("create session: %v", r)
	}
	if err := json.Unmarshal(r.Body, &resp); err != nil || resp.SessionID == "" {
		return "", resp, fmt.Errorf("create reply %.200s: %v", r.Body, err)
	}
	return resp.SessionID, resp, nil
}

// clientLog is what one stream client observed.
type clientLog struct {
	p        pass
	sessions map[int]*sentSession
}

// measure runs streamClients closed-loop clients; client c drives sessions
// c, c+streamClients, ... one at a time until the time is up.
func (s *streamState) measure(b *bench, dur time.Duration, tr *tracer) *pass {
	deadline := time.Now().Add(dur)
	logs := make([]clientLog, streamClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.client(b, tr, c, deadline, &logs[c])
		}(c)
	}
	wg.Wait()
	p := &pass{perSecond: time.Since(start).Seconds()}
	s.sessions = map[int]*sentSession{}
	for _, l := range logs {
		p.merge(&l.p)
		for k, v := range l.sessions {
			s.sessions[k] = v
		}
	}
	return p
}

// client opens a session, sends it all its frames, closes it and opens the
// next, until the time is up; the session in progress then ends early.
func (s *streamState) client(b *bench, tr *tracer, c int, deadline time.Time, l *clientLog) {
	p := &l.p
	l.sessions = map[int]*sentSession{}
	for idx := c; time.Now().Before(deadline); idx += streamClients {
		mol := streamMolecule(s.seed, idx, b.scale)
		ss := &sentSession{
			create: mustJSON(serve.StreamCreateRequest{Molecule: serve.FromMolecule(mol)}),
			frames: streamFrames(s.seed, idx, mol, streamLife),
		}
		p.attempted++
		t0 := time.Now()
		sid, cr, err := createSession(b, tr, s.st.url, ss.create)
		if err != nil {
			p.fail(false, "session %d: %v", idx, err)
			continue
		}
		p.create = append(p.create, msSince(t0))
		ss.initial = cr.Energy
		l.sessions[idx] = ss
		for _, f := range ss.frames {
			if !time.Now().Before(deadline) {
				break
			}
			rep, ms := timedPost(b, tr, s.st.url+"/v1/stream/"+sid+"/frame", mustJSON(f))
			p.attempted++
			var fr serve.StreamFrameResponse
			if !rep.ok() {
				p.fail(false, "session %d frame %d: %v", idx, len(ss.energies), rep)
				break
			}
			if err := json.Unmarshal(rep.Body, &fr); err != nil {
				p.fail(true, "session %d frame reply: %v", idx, err)
				break
			}
			ss.energies = append(ss.energies, fr.Energy)
			p.lat = append(p.lat, ms)
			p.rtt = append(p.rtt, ms)
			p.stages = append(p.stages, fr.Timings.QueueMS+fr.Timings.EvalMS)
			p.queue = append(p.queue, fr.Timings.QueueMS)
			p.ops++
			p.atoms += float64(mol.N())
		}
		p.attempted++
		if r := send(b.c, http.MethodDelete, s.st.url+"/v1/stream/"+sid, nil); !r.ok() {
			p.fail(false, "close session %d: %v", idx, r)
		}
	}
}

// merge adds another pass's observations (all but perSecond) to p.
func (p *pass) merge(o *pass) {
	p.lat = append(p.lat, o.lat...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong += o.wrong
	p.ops += o.ops
	p.atoms += o.atoms
	p.rtt = append(p.rtt, o.rtt...)
	p.stages = append(p.stages, o.stages...)
	p.queue = append(p.queue, o.queue...)
	p.create = append(p.create, o.create...)
	p.late = append(p.late, o.late...)
	p.batchPoses = append(p.batchPoses, o.batchPoses...)
	p.failures = append(p.failures, o.failures...)
}

func sessionOptions() engine.SessionOptions {
	return engine.SessionOptions{Surf: surfOptions(), Eval: evalOptions(1)}
}

func toDelta(f serve.StreamFrameRequest) engine.FrameDelta {
	d := engine.FrameDelta{Moves: make([]engine.AtomMove, len(f.Moves))}
	for i, mv := range f.Moves {
		d.Moves[i] = engine.AtomMove{Index: mv.I, Pos: geom.V(mv.Pos[0], mv.Pos[1], mv.Pos[2])}
	}
	return d
}

// verify replays every k-th session through a from-scratch oracle session
// (every frame fully resummed) and compares its create energy and every
// frame within the 1e-12 the engine's session tests pin.
func (s *streamState) verify(b *bench, p *pass) float64 {
	for idx, ss := range s.sessions {
		if idx%streamVerifyEvery != 0 {
			continue
		}
		var req serve.StreamCreateRequest
		if err := json.Unmarshal(ss.create, &req); err != nil {
			p.fail(true, "re-decode session %d: %v", idx, err)
			continue
		}
		o := sessionOptions()
		o.ResweepEvery = 1
		oracle, err := engine.NewSession(decodeMolecule(req.Molecule), o)
		if err == nil {
			err = checkEnergy(fmt.Sprintf("session %d create", idx), ss.initial, oracle.Energy())
		}
		for f := 0; err == nil && f < len(ss.energies); f++ {
			var rep engine.FrameReport
			if rep, err = oracle.Step(toDelta(ss.frames[f])); err == nil {
				err = checkEnergy(fmt.Sprintf("session %d frame %d", idx, f), ss.energies[f], rep.Energy)
			}
		}
		if err != nil {
			p.fail(true, "%v", err)
		}
	}
	return s.anchor(b, p)
}

// anchor opens a session on a fixed molecule and returns the relative
// error of its energy against Naive on the session's q-points.
func (s *streamState) anchor(b *bench, p *pass) float64 {
	mol := molecule.GenerateProtein("anchor-md", scaled(800, b.scale), anchorSeed+20)
	p.attempted++
	sid, cr, err := createSession(b, nil, s.st.url, mustJSON(serve.StreamCreateRequest{Molecule: serve.FromMolecule(mol)}))
	if err != nil {
		p.fail(false, "anchor session: %v", err)
		return 0
	}
	send(b.c, http.MethodDelete, s.st.url+"/v1/stream/"+sid, nil)
	m := decodeMolecule(serve.FromMolecule(mol))
	q, _ := surface.SampleOwned(m, surfOptions())
	naive, err := naiveEnergy(engine.NewProblemFromSurface(m, q))
	if err != nil {
		p.fail(true, "anchor session naive: %v", err)
		return 0
	}
	return relDiff(cr.Energy, naive)
}

// replay repeats the measured sessions in order: session creation
// (decode, surface sampling, the two tree builds, engine.NewSession), then
// every frame the client sent (decode, Session.Step, encode).
func (s *streamState) replay(b *bench, tr *tracer, ov *overhead, until time.Time, m map[string]float64) {
	t := tally{}
	for idx := 0; idx == 0 || time.Now().Before(until); idx++ {
		ss := s.sessions[idx]
		if ss == nil {
			break
		}
		// Each of an operation's two paired runs steps its own session:
		// the untraced run off, the traced run on.
		var off, on *engine.Session
		ov.pair(tr, t, func(tr *tracer, t tally) {
			sess := replayCreate(tr, ss.create, t)
			if tr == nil {
				off = sess
			} else {
				on = sess
			}
		})
		for f := 0; f < len(ss.energies); f++ {
			ov.pair(tr, t, func(tr *tracer, t tally) {
				sess := on
				if tr == nil {
					sess = off
				}
				replayFrame(tr, sess, ss.frames[f], t)
			})
		}
	}
	t.into(m)
}

func replayCreate(tr *tracer, body []byte, t tally) *engine.Session {
	root := tr.begin("op.create", nil)
	defer root.end()
	var req serve.StreamCreateRequest
	var mol *molecule.Molecule
	decodeInto(tr, root, body, &req, func() { mol = decodeMolecule(req.Molecule) })
	var q []surface.QPoint
	tr.do("surface.sample", root, func() { q, _ = surface.SampleOwned(mol, surfOptions()) })
	t.add("surface.qpoints_per_atom", float64(len(q))/float64(mol.N()))
	treeBuilds(tr, root, mol, q)
	var sess *engine.Session
	var err error
	tr.do("engine.session_create", root, func() { sess, err = engine.NewSession(mol, sessionOptions()) })
	if err != nil {
		panic(fmt.Sprintf("engine.NewSession: %v", err)) // the server opened the same session
	}
	encode(tr, root, serve.StreamCreateResponse{SessionID: "s", Atoms: mol.N(), QPoints: sess.NumQPoints(), Energy: sess.Energy()})
	return sess
}

func replayFrame(tr *tracer, sess *engine.Session, frame serve.StreamFrameRequest, t tally) {
	root := tr.begin("op.frame", nil)
	defer root.end()
	var fr serve.StreamFrameRequest
	decodeInto(tr, root, mustJSON(frame), &fr, func() {})
	var rep engine.FrameReport
	var err error
	tr.do("engine.session_step", root, func() { rep, err = sess.Step(toDelta(fr)) })
	if err != nil {
		panic(fmt.Sprintf("Session.Step: %v", err)) // the server stepped the same frame
	}
	t.add("engine.dirty_born_rows", float64(rep.DirtyBornRows))
	t.add("engine.dirty_epol_drivers", float64(rep.DirtyEpolDrivers))
	resweep := 0.0
	if rep.Resweep {
		resweep = 1
	}
	t.add("engine.resweeps", resweep)
	encode(tr, root, serve.StreamFrameResponse{SessionID: "s", Frame: rep.Frame, Energy: rep.Energy,
		MovedAtoms: rep.MovedAtoms, DirtyBornRows: rep.DirtyBornRows, DirtyEpolDrivers: rep.DirtyEpolDrivers})
}
