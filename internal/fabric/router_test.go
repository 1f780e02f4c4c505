package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/serve"
)

// stubWorker is a scriptable upstream: an httptest server plus a worker
// agent registered under id, counting the requests it answers.
type stubWorker struct {
	id    string
	ts    *httptest.Server
	agent *Worker
	hits  atomic.Int64
}

func (s *stubWorker) handler(w http.ResponseWriter, r *http.Request) {
	s.hits.Add(1)
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"request_id":"r1","worker":%q,"energy":-42.0}`, s.id)
}

// newRouterHarness builds a router (handler-mounted, membership on a
// loopback listener) plus n stub workers, and waits for the full ring.
func newRouterHarness(t *testing.T, n int, cfg RouterConfig) (*Router, *httptest.Server, []*stubWorker) {
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

	workers := make([]*stubWorker, n)
	for i := range workers {
		sw := &stubWorker{id: fmt.Sprintf("w%d", i)}
		sw.ts = httptest.NewServer(http.HandlerFunc(sw.handler))
		t.Cleanup(sw.ts.Close)
		agent, err := StartWorker(WorkerConfig{
			RouterAddr: rt.MembershipAddr(),
			WorkerID:   sw.id,
			Advertise:  strings.TrimPrefix(sw.ts.URL, "http://"),
			Epoch:      1,
			Timeout:    cfg.Timeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		sw.agent = agent
		t.Cleanup(agent.Close)
		workers[i] = sw
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.mem.Ring().Size() != n {
		if time.Now().After(deadline) {
			t.Fatalf("ring never reached %d workers (at %d)", n, rt.mem.Ring().Size())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rt, front, workers
}

// energyBody builds a small valid energy request; seed varies the routing
// key.
func energyBody(seed int) []byte {
	atoms := make([][5]float64, 4)
	for i := range atoms {
		atoms[i] = [5]float64{float64(i) * 3, float64(seed), 0, 1.5, 0.1}
	}
	b, _ := json.Marshal(map[string]any{"molecule": map[string]any{"atoms": atoms}})
	return b
}

// keyOf extracts the routing key the router would derive for energyBody(seed).
func keyOf(seed int) uint64 {
	atoms := make([][5]float64, 4)
	for i := range atoms {
		atoms[i] = [5]float64{float64(i) * 3, float64(seed), 0, 1.5, 0.1}
	}
	return hashAtoms(atoms)
}

// stubByID finds the stub a ring owner ID refers to.
func stubByID(t *testing.T, workers []*stubWorker, id string) *stubWorker {
	t.Helper()
	for _, w := range workers {
		if w.id == id {
			return w
		}
	}
	t.Fatalf("no stub %q", id)
	return nil
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouterRoutesByKey: the same molecule always lands on its ring
// owner; the serving shard is stamped on the response.
func TestRouterRoutesByKey(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 3, RouterConfig{})
	for seed := 0; seed < 5; seed++ {
		want := rt.mem.Ring().Owner(keyOf(seed))
		for rep := 0; rep < 3; rep++ {
			resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
			if resp.StatusCode != 200 {
				t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
			}
			if got := resp.Header.Get(WorkerHeader); got != want {
				t.Fatalf("seed %d rep %d served by %s, want owner %s", seed, rep, got, want)
			}
		}
	}
	total := int64(0)
	for _, w := range workers {
		total += w.hits.Load()
	}
	if total != 15 {
		t.Fatalf("stub hits %d, want 15 (no duplicates without hedging)", total)
	}
}

// TestRouterFailover: the primary dies hard (connection refused); the
// request retries on the replica and succeeds, and the dead worker leaves
// the ring via the suspect path.
func TestRouterFailover(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 3, RouterConfig{})
	const seed = 7
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	prim := stubByID(t, workers, owners[0])
	// Kill the HTTP side only: the membership link keeps heartbeating, so
	// the router still believes the worker is up — exactly the window
	// between a crash and its detection.
	prim.ts.CloseClientConnections()
	prim.ts.Close()

	resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(WorkerHeader); got != owners[1] {
		t.Fatalf("served by %s, want replica %s", got, owners[1])
	}
	if rt.met.retries.Load() == 0 {
		t.Fatal("no retry recorded")
	}
	// The transport error marked the primary suspect → declared failed
	// via the single membership removal path.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, _, failures, _ := rt.mem.Counters()
		if failures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("suspected primary never declared failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterSpillsWhenPrimaryBusy: a cold key leaves a saturated primary
// for an idle replica, driven by the heartbeat load reports.
func TestRouterSpillsWhenPrimaryBusy(t *testing.T) {
	rt, _, workers := newRouterHarness(t, 2, RouterConfig{})
	const seed = 3
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	// Mark the primary saturated via its member load (as a heartbeat
	// would), then plan.
	rt.mem.mu.Lock()
	rt.mem.members[owners[0]].setLoad(LoadReport{Workers: 2, Inflight: 2, QueueDepth: 5})
	rt.mem.mu.Unlock()
	order := rt.plan(keyOf(seed))
	if order[0] != owners[1] {
		t.Fatalf("plan %v, want spill to %s", order, owners[1])
	}
	if rt.met.spills.Load() != 1 {
		t.Fatalf("spills = %d, want 1", rt.met.spills.Load())
	}
	_ = workers
}

// TestRouterHotSpread: a hot key's requests alternate across its replica
// set instead of hammering the primary.
func TestRouterHotSpread(t *testing.T) {
	rt, front, workers := newRouterHarness(t, 3, RouterConfig{})
	const seed = 11
	owners := rt.mem.Ring().Owners(keyOf(seed), 2)
	for i := 0; i < hotThreshold+20; i++ {
		resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(seed))
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if rt.met.hotSpreads.Load() == 0 {
		t.Fatal("hot key never spread to its replica")
	}
	a, b := stubByID(t, workers, owners[0]).hits.Load(), stubByID(t, workers, owners[1]).hits.Load()
	if a == 0 || b == 0 {
		t.Fatalf("hot key hits not spread: primary=%d replica=%d", a, b)
	}
}

func postGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestRouterNoWorkers: an empty ring is a clean 503 with the no_workers
// token, not a hang or a panic.
func TestRouterNoWorkers(t *testing.T) {
	rt := NewRouter(RouterConfig{Timeout: 200 * time.Millisecond})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, body := postRaw(t, front.URL+"/v1/energy", energyBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("no_workers")) {
		t.Fatalf("status %d body %s, want 503 no_workers", resp.StatusCode, body)
	}
	resp2, body2 := postGet(t, front.URL+"/healthz")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz on empty ring: %d %s", resp2.StatusCode, body2)
	}
}

// TestRouterBadRequest: malformed bodies are rejected at the router with
// the workers' token vocabulary.
func TestRouterBadRequest(t *testing.T) {
	_, front, _ := newRouterHarness(t, 1, RouterConfig{})
	resp, body := postRaw(t, front.URL+"/v1/energy", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("bad_request")) {
		t.Fatalf("status %d body %s, want 400 bad_request", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/energy", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/energy: %d, want 405", resp2.StatusCode)
	}
}

// TestRouterBodyReadErrorIsBadRequest: a body that fails mid-read (a
// client gone mid-upload) is the client's fault, not an oversized body —
// 400 bad_request, not 413 too_large — on every body-reading route.
func TestRouterBodyReadErrorIsBadRequest(t *testing.T) {
	rt := NewRouter(RouterConfig{Timeout: 200 * time.Millisecond})
	for _, path := range []string{"/v1/energy", "/v1/sweep", "/v1/stream", "/v1/stream/w0~s1/frame"} {
		req := httptest.NewRequest(http.MethodPost, path, iotest.ErrReader(errors.New("client went away")))
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad_request") {
			t.Errorf("%s: status %d body %s, want 400 bad_request", path, rec.Code, rec.Body)
		}
	}
}

// TestRoutingKeyMatchesCacheKey pins cache affinity: the key the router
// derives from the wire atoms must equal KeyHash of the molecule.Hash the
// workers use as cache-key material, or a molecule would route away from
// the shard holding its prepared problem.
func TestRoutingKeyMatchesCacheKey(t *testing.T) {
	check := func(name string, m *molecule.Molecule) {
		t.Helper()
		if got, want := hashAtoms(serve.FromMolecule(m).Atoms), KeyHash(m.Hash()); got != want {
			t.Errorf("%s: routing key %#x, cache key %#x", name, got, want)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		n := 1 + int(seed*37%300)
		check(fmt.Sprintf("protein seed=%d n=%d", seed, n), molecule.GenerateProtein("p", n, seed))
	}
	negZero := molecule.GenerateProtein("z", 3, 9)
	negZero.Atoms[0].Pos.X = math.Copysign(0, -1)
	negZero.Atoms[1].Pos.Y = math.Copysign(0, -1)
	negZero.Atoms[2].Charge = math.Copysign(0, -1)
	check("negative zero", negZero)
	check("empty", &molecule.Molecule{})
}
