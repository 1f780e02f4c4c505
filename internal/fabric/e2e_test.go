package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/testutil"
)

// fabricWorker is one real back-end: an engine-backed serve.Server, its
// HTTP listener, and the membership agent that joins it to the router.
type fabricWorker struct {
	id    string
	srv   *serve.Server
	ts    *httptest.Server
	agent *Worker
}

// kill simulates a crash: the HTTP side and the registration link both
// drop with no goodbye and no reconnect.
func (fw *fabricWorker) kill() {
	fw.agent.halt(false)
	fw.ts.CloseClientConnections()
	fw.ts.Close()
}

// newFabric boots 1 router + n engine workers and waits for the full
// ring.
func newFabric(t *testing.T, n int, cfg RouterConfig) (*Router, *httptest.Server, []*fabricWorker) {
	t.Helper()
	cfg.Addr = "unused"
	cfg.MembershipAddr = "unused"
	if cfg.Timeout == 0 {
		cfg.Timeout = 300 * time.Millisecond
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = 32
	}
	rt := NewRouter(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rt.ServeMembership(ln)
	t.Cleanup(rt.mem.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	workers := make([]*fabricWorker, n)
	for i := range workers {
		fw := &fabricWorker{id: fmt.Sprintf("w%d", i)}
		fw.srv = serve.New(serve.Config{Workers: 2, Threads: 1})
		fw.ts = httptest.NewServer(fw.srv.Handler())
		srv := fw.srv
		agent, err := StartWorker(WorkerConfig{
			RouterAddr: rt.MembershipAddr(),
			WorkerID:   fw.id,
			Advertise:  strings.TrimPrefix(fw.ts.URL, "http://"),
			Epoch:      1,
			Timeout:    cfg.Timeout,
			Load:       ServeLoad(srv),
		})
		if err != nil {
			t.Fatal(err)
		}
		fw.agent = agent
		workers[i] = fw
		t.Cleanup(func() {
			agent.Close()
			fw.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.mem.Ring().Size() != n {
		if time.Now().After(deadline) {
			t.Fatalf("ring never reached %d workers", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rt, front, workers
}

func postBody(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// hitRate computes a worker's lifetime cache hit rate.
func hitRate(ls serve.LoadStats) float64 {
	total := ls.CacheHits + ls.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(ls.CacheHits) / float64(total)
}

// TestE2EFailoverMidSweep is the acceptance scenario: 1 router + 3 engine
// workers serve a mixed trace; one worker is crashed mid-trace. No
// accepted energy/sweep request is lost (failover retries on the
// replica), sessions on the dead shard fail with the typed 404 contract
// only, and the surviving shards' cache hit rate stays within 20% of its
// pre-crash value.
func TestE2EFailoverMidSweep(t *testing.T) {
	defer testutil.Watchdog(t, 4*time.Minute)()
	rt, front, workers := newFabric(t, 3, RouterConfig{})

	// A mixed molecule population: distinct small proteins, each repeated
	// so the prepared caches warm up.
	const nMol = 6
	mols := make([]serve.MoleculeJSON, nMol)
	for i := range mols {
		mols[i] = serve.FromMolecule(molecule.GenerateProtein(fmt.Sprintf("m%d", i), 30, int64(i+1)))
	}
	rec := serve.FromMolecule(molecule.GenerateProtein("rec", 40, 99))
	lig := serve.FromMolecule(molecule.GenerateProtein("lig", 12, 98))

	sendEnergy := func(i int) (int, string) {
		resp, body := postBody(t, front.URL+"/v1/energy", serve.EnergyRequest{Molecule: mols[i%nMol]})
		if resp.StatusCode != 200 {
			return resp.StatusCode, string(body)
		}
		return 200, resp.Header.Get(WorkerHeader)
	}
	sendSweep := func() (int, string) {
		resp, body := postBody(t, front.URL+"/v1/sweep", serve.SweepRequest{
			Receptor: &rec, Ligand: lig,
			Poses: []serve.PoseJSON{{T: [3]float64{8, 0, 0}}, {T: [3]float64{10, 0, 0}}},
		})
		if resp.StatusCode != 200 {
			return resp.StatusCode, string(body)
		}
		return 200, resp.Header.Get(WorkerHeader)
	}

	// Phase 1 — warm. Two passes over every molecule plus sweeps: the
	// second pass hits the prepared caches.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nMol; i++ {
			if code, detail := sendEnergy(i); code != 200 {
				t.Fatalf("warm energy %d: %d %s", i, code, detail)
			}
		}
		if code, detail := sendSweep(); code != 200 {
			t.Fatalf("warm sweep: %d %s", code, detail)
		}
	}

	// Create stream sessions across the shards.
	type session struct {
		routedID string
		owner    string
	}
	var sessions []session
	for i := 0; i < nMol; i++ {
		resp, body := postBody(t, front.URL+"/v1/stream", serve.StreamCreateRequest{Molecule: mols[i]})
		if resp.StatusCode != 200 && resp.StatusCode != 201 {
			t.Fatalf("stream create %d: %d %s", i, resp.StatusCode, body)
		}
		var cr serve.StreamCreateResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		owner, _, ok := strings.Cut(cr.SessionID, sessionIDSep)
		if !ok {
			t.Fatalf("session ID %q not in routed form", cr.SessionID)
		}
		if got := resp.Header.Get(WorkerHeader); got != owner {
			t.Fatalf("create served by %s but session routed to %s", got, owner)
		}
		sessions = append(sessions, session{routedID: cr.SessionID, owner: owner})
	}

	// Shard stickiness: every frame of a session lands on its owner.
	frame := func(s session) (*http.Response, []byte) {
		return postBody(t, front.URL+"/v1/stream/"+s.routedID+"/frame",
			serve.StreamFrameRequest{Moves: []serve.MoveJSON{{I: 0, Pos: [3]float64{0.05, 0, 0}}}})
	}
	for _, s := range sessions {
		for f := 0; f < 2; f++ {
			resp, body := frame(s)
			if resp.StatusCode != 200 {
				t.Fatalf("frame on %s: %d %s", s.routedID, resp.StatusCode, body)
			}
			if got := resp.Header.Get(WorkerHeader); got != s.owner {
				t.Fatalf("frame of %s served by %s, want owner %s", s.routedID, got, s.owner)
			}
			var fr serve.StreamFrameResponse
			if err := json.Unmarshal(body, &fr); err != nil {
				t.Fatal(err)
			}
			if fr.SessionID != s.routedID {
				t.Fatalf("frame response session_id %q, want routed %q", fr.SessionID, s.routedID)
			}
		}
	}

	// Pre-crash snapshot of the soon-to-be survivors' cache behaviour.
	victim := workers[1]
	preRate := map[string]float64{}
	for _, fw := range workers {
		if fw != victim {
			preRate[fw.id] = hitRate(fw.srv.LoadStats())
		}
	}

	// Phase 2 — crash mid-trace. Concurrent clients sweep the same
	// population while the victim dies under them.
	var failures atomic.Int64
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				var detail string
				if i%4 == 3 {
					code, detail = sendSweep()
				} else {
					code, detail = sendEnergy(c*7 + i)
				}
				if code != 200 {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("%d %s", code, detail))
				}
			}
		}(c)
	}
	time.Sleep(150 * time.Millisecond) // in-flight load established
	victim.kill()
	time.Sleep(600 * time.Millisecond) // crash + detection + rerouted traffic
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d accepted requests lost across the crash; first: %v", n, firstFailure.Load())
	}

	// The ring converged on the survivors.
	deadline := time.Now().Add(3 * time.Second)
	for rt.mem.Ring().Size() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ring still %v after crash", rt.mem.Ring().Members())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One more warm pass, then compare survivor hit rates: within 20
	// points of pre-crash (the keys the survivors already owned did not
	// move — that is the consistent-hash property doing its job).
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nMol; i++ {
			if code, detail := sendEnergy(i); code != 200 {
				t.Fatalf("post-crash energy %d: %d %s", i, code, detail)
			}
		}
	}
	for _, fw := range workers {
		if fw == victim {
			continue
		}
		post := hitRate(fw.srv.LoadStats())
		if pre := preRate[fw.id]; post < pre-0.20 {
			t.Errorf("survivor %s hit rate fell from %.2f to %.2f (> 20%% drop)", fw.id, pre, post)
		}
	}

	// Sessions: survivors' sessions keep working; the dead shard's
	// sessions fail with the existing 404 token — a truly lost session —
	// and nothing else.
	for _, s := range sessions {
		resp, body := frame(s)
		if s.owner == victim.id {
			if resp.StatusCode != http.StatusNotFound || !bytes.Contains(body, []byte("not_found")) {
				t.Fatalf("lost session %s: %d %s, want 404 not_found", s.routedID, resp.StatusCode, body)
			}
			continue
		}
		if resp.StatusCode != 200 {
			t.Fatalf("surviving session %s: %d %s", s.routedID, resp.StatusCode, body)
		}
	}

	// Router bookkeeping saw the crash as a typed failure, not a goodbye.
	_, goodbyes, fails, _ := rt.mem.Counters()
	if fails == 0 {
		t.Error("crash not recorded as a membership failure")
	}
	_ = goodbyes
}

// TestE2EStreamCloseAndUnknownSession pins the sticky-session edge cases
// through the full stack: close works through the router, a closed or
// never-created session is 404 not_found, and a session ID without a
// shard prefix is rejected with the same token.
func TestE2EStreamCloseAndUnknownSession(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, front, _ := newFabric(t, 2, RouterConfig{})

	mol := serve.FromMolecule(molecule.GenerateProtein("sc", 25, 5))
	resp, body := postBody(t, front.URL+"/v1/stream", serve.StreamCreateRequest{Molecule: mol})
	if resp.StatusCode != 200 && resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var cr serve.StreamCreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}

	resp2, body2 := postBody(t, front.URL+"/v1/stream/"+cr.SessionID+"/close", struct{}{})
	if resp2.StatusCode != 200 {
		t.Fatalf("close: %d %s", resp2.StatusCode, body2)
	}
	// Frames after close: the worker's own 404 contract, relayed.
	resp3, body3 := postBody(t, front.URL+"/v1/stream/"+cr.SessionID+"/frame",
		serve.StreamFrameRequest{Moves: []serve.MoveJSON{{I: 0, Pos: [3]float64{1, 0, 0}}}})
	if resp3.StatusCode != http.StatusNotFound || !bytes.Contains(body3, []byte("not_found")) {
		t.Fatalf("frame after close: %d %s, want 404 not_found", resp3.StatusCode, body3)
	}
	// A session ID with no shard prefix: the router's own 404.
	resp4, body4 := postBody(t, front.URL+"/v1/stream/s-has-no-prefix/frame",
		serve.StreamFrameRequest{Moves: []serve.MoveJSON{{I: 0, Pos: [3]float64{1, 0, 0}}}})
	if resp4.StatusCode != http.StatusNotFound || !bytes.Contains(body4, []byte("not_found")) {
		t.Fatalf("unprefixed session: %d %s, want 404 not_found", resp4.StatusCode, body4)
	}
}

// upstreamCount reads the router's octgb_fabric_upstream_seconds_count
// sample for one worker shard from /metrics (0 when the series is absent).
func upstreamCount(t *testing.T, frontURL, worker string) int {
	t.Helper()
	resp, err := http.Get(frontURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	prefix := `octgb_fabric_upstream_seconds_count{worker="` + worker + `"} `
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("malformed sample %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestStickyFramesObserveUpstreamLatency: sticky stream requests go
// through the same upstream send as keyed routes, so every routed frame
// lands exactly once in its session shard's per-worker latency histogram.
func TestStickyFramesObserveUpstreamLatency(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	_, front, _ := newFabric(t, 2, RouterConfig{Observe: obs.New()})

	mol := serve.FromMolecule(molecule.GenerateProtein("sm", 25, 6))
	resp, body := postBody(t, front.URL+"/v1/stream", serve.StreamCreateRequest{Molecule: mol})
	if resp.StatusCode != 200 && resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var cr serve.StreamCreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	owner, _, _ := strings.Cut(cr.SessionID, sessionIDSep)

	for f := 1; f <= 3; f++ {
		before := upstreamCount(t, front.URL, owner)
		resp, body := postBody(t, front.URL+"/v1/stream/"+cr.SessionID+"/frame",
			serve.StreamFrameRequest{Moves: []serve.MoveJSON{{I: 0, Pos: [3]float64{0.05 * float64(f), 0, 0}}}})
		if resp.StatusCode != 200 {
			t.Fatalf("frame %d: %d %s", f, resp.StatusCode, body)
		}
		if got := upstreamCount(t, front.URL, owner) - before; got != 1 {
			t.Fatalf("frame %d added %d to %s's upstream latency count, want 1", f, got, owner)
		}
	}
}
