package fabric

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/obs"
	"octgb/internal/serve"
)

// DefaultReplicas is the replication factor R: hot keys and failover both
// use the key's first R distinct ring owners.
const DefaultReplicas = 2

// maxRouterBody bounds request buffering, matching the workers' own
// request-body bound so the router never rejects what a worker would
// accept.
const maxRouterBody = 256 << 20

// sessionIDSep joins a worker ID and a worker-local session ID into the
// routed session ID clients hold ("worker~s-abc-0001"). Worker IDs cannot
// contain it (validWorkerID) and worker-minted session IDs never do.
const sessionIDSep = "~"

// WorkerHeader is set on every proxied response: which shard served it.
// The load generator's router mode reads it for per-shard attribution.
const WorkerHeader = "X-Octgb-Worker"

// RouterConfig configures the front-end router tier.
type RouterConfig struct {
	// Addr is the HTTP listen address (":8700" when empty).
	Addr string
	// MembershipAddr is the worker registration listener (":8701" when
	// empty).
	MembershipAddr string
	// Replicas is the replication factor R (DefaultReplicas when 0).
	Replicas int
	// VNodes is the ring's virtual-node count per worker.
	VNodes int
	// Timeout is the membership heartbeat timeout.
	Timeout time.Duration
	// Client performs upstream requests (a pooled default when nil).
	Client *http.Client
	// Observe exports the router's metrics; nil disables /metrics.
	Observe *obs.Observer
	// Logger receives lifecycle logs; nil is silent.
	Logger *log.Logger
}

// routerMetrics is the router's atomic counter set.
type routerMetrics struct {
	start time.Time

	forwarded      atomic.Int64 // requests relayed to a worker (any status)
	retries        atomic.Int64 // failover retries after a transport error
	spills         atomic.Int64 // load spills: busy primary skipped for an idle replica
	hotSpreads     atomic.Int64 // hot keys alternated across their replica set
	noWorkers      atomic.Int64 // rejected: empty ring
	upstreamFailed atomic.Int64 // all owners exhausted by transport errors
	lostSessions   atomic.Int64 // sticky session whose shard is gone
}

// Router is the stateless front end of the serving fabric. It owns no
// evaluation state — only the membership registry, the ring, and soft
// routing state (hot-key tracker, latency histograms) that can be lost
// without losing a request — so routers scale horizontally and restart
// freely.
type Router struct {
	cfg    RouterConfig
	mem    *Membership
	client *http.Client
	mux    *http.ServeMux
	met    routerMetrics
	hot    *hotTracker
	spread atomic.Uint64 // alternates hot keys across their replica set

	perWorkerMu  sync.Mutex
	perWorkerLat map[string]*obs.Histogram

	httpSrv *http.Server
	ln      net.Listener
	stopped atomic.Bool
}

// NewRouter builds a router and its membership registry; Start (or
// Handler + Serve on the membership listener in tests) brings it live.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Addr == "" {
		cfg.Addr = ":8700"
	}
	if cfg.MembershipAddr == "" {
		cfg.MembershipAddr = ":8701"
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	rt := &Router{
		cfg:          cfg,
		client:       cfg.Client,
		hot:          newHotTracker(hotWindow, hotThreshold),
		perWorkerLat: make(map[string]*obs.Histogram),
	}
	rt.met.start = time.Now()
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt.mem = NewMembership(MembershipConfig{
		Timeout: cfg.Timeout,
		VNodes:  cfg.VNodes,
		Observe: cfg.Observe,
		Logf:    rt.logf,
	})

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/v1/energy", rt.handleEnergy)
	rt.mux.HandleFunc("/v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("/v1/stream", rt.handleStreamCreate)
	rt.mux.HandleFunc("/v1/stream/", rt.handleStreamSticky)
	rt.mux.HandleFunc("/stats", rt.handleStats)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	if cfg.Observe != nil {
		rt.mux.Handle("/metrics", cfg.Observe.Reg.Handler())
	}
	return rt
}

// Membership returns the router's registry (tests and the daemon use it
// for introspection).
func (rt *Router) Membership() *Membership { return rt.mem }

// Handler returns the router's HTTP handler without starting listeners.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start binds the HTTP and membership listeners and serves in background
// goroutines until Shutdown.
func (rt *Router) Start() error {
	memLn, err := net.Listen("tcp", rt.cfg.MembershipAddr)
	if err != nil {
		return fmt.Errorf("fabric: membership listen: %w", err)
	}
	rt.mem.Serve(memLn)

	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		rt.mem.Close()
		return fmt.Errorf("fabric: listen: %w", err)
	}
	rt.ln = ln
	rt.httpSrv = &http.Server{Handler: rt.mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = rt.httpSrv.Serve(ln) }()
	rt.logf("fabric: router serving on %s (membership on %s, R=%d)", ln.Addr(), memLn.Addr(), rt.cfg.Replicas)
	return nil
}

// ServeMembership starts only the registration listener — tests drive the
// HTTP side through Handler().
func (rt *Router) ServeMembership(ln net.Listener) { rt.mem.Serve(ln) }

// Addr returns the bound HTTP address ("" before Start).
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// MembershipAddr returns the bound registration address ("" before
// Start/ServeMembership).
func (rt *Router) MembershipAddr() string { return rt.mem.Addr() }

// Shutdown stops the HTTP server and the membership registry.
func (rt *Router) Shutdown(ctx context.Context) error {
	if !rt.stopped.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	if rt.httpSrv != nil {
		err = rt.httpSrv.Shutdown(ctx)
	}
	rt.mem.Close()
	return err
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Printf(format, args...)
	}
}

// hashAtoms reproduces molecule.Hash over the wire-form atom 5-tuples, so
// the router derives the same routing key the workers use as cache key
// material without materializing a molecule.
func hashAtoms(atoms [][5]float64) uint64 {
	h := sha256.New()
	var buf [40]byte
	for _, a := range atoms {
		for i, v := range a {
			binary.LittleEndian.PutUint64(buf[8*i:8*i+8], math.Float64bits(v))
		}
		h.Write(buf[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return KeyHash(sum)
}

// writeRouterError mirrors the workers' error contract (serve.ErrorResponse
// tokens) so clients see one vocabulary whether a reject came from a
// worker's admission gate or from the router itself.
func writeRouterError(w http.ResponseWriter, status int, token, detail string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: token, Detail: detail})
}

// readBody buffers the request body for replay across failover attempts.
// Only an oversized body is too_large; any other read failure (a client
// gone mid-upload, a torn chunked body) is a bad request.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeRouterError(w, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds limit")
		} else {
			writeRouterError(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

func (rt *Router) handleEnergy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.EnergyRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Molecule.Atoms) == 0 {
		writeRouterError(w, http.StatusBadRequest, "bad_request", "invalid energy request")
		return
	}
	rt.forward(w, r, hashAtoms(req.Molecule.Atoms), body, nil)
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Ligand.Atoms) == 0 {
		writeRouterError(w, http.StatusBadRequest, "bad_request", "invalid sweep request")
		return
	}
	// Route by receptor when present: the receptor is the shared, heavy,
	// cache-resident side of a docking sweep (the paper's workload), so
	// all sweeps against one receptor land on the shard that has its
	// surface and octree prepared. Ligand-only sweeps route by ligand.
	key := hashAtoms(req.Ligand.Atoms)
	if req.Receptor != nil && len(req.Receptor.Atoms) > 0 {
		key = hashAtoms(req.Receptor.Atoms)
	}
	rt.forward(w, r, key, body, nil)
}

// forward routes one keyed request: plan the owner order, fail over on
// transport errors, relay the first response. transform, when non-nil,
// rewrites a successful response body given the shard that served it.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key uint64, body []byte, transform func(worker string, body []byte) []byte) {
	order := rt.plan(key)
	if len(order) == 0 {
		rt.met.noWorkers.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, "no_workers", "no workers registered")
		return
	}
	resp, worker, err := rt.tryEach(r.Context(), order, r.URL.Path, r.Header.Get("Content-Type"), body)
	if err != nil {
		rt.met.upstreamFailed.Add(1)
		writeRouterError(w, http.StatusBadGateway, "upstream_failed", err.Error())
		return
	}
	rt.relay(w, resp, worker, transform)
}

// send performs one upstream attempt against worker id. A non-nil error
// is a transport failure (dial, reset, torn body) or a worker no longer
// registered — the caller should fail over; HTTP-level errors come back
// as responses.
func (rt *Router) send(ctx context.Context, method, id, path, contentType string, body []byte) (*http.Response, error) {
	info, ok := rt.mem.Member(id)
	if !ok {
		return nil, fmt.Errorf("worker %s no longer registered", id)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+info.Addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		// A cancelled context means the client went away — only organic
		// transport errors make the worker suspect.
		if ctx.Err() == nil {
			rt.mem.Suspect(id, err)
		}
		return nil, err
	}
	rt.workerLat(id).Observe(time.Since(start))
	return resp, nil
}

// workerLat returns the per-shard upstream latency histogram (Observe
// registry only — nil-safe no-op otherwise).
func (rt *Router) workerLat(id string) *obs.Histogram {
	if rt.cfg.Observe == nil {
		return nil
	}
	rt.perWorkerMu.Lock()
	defer rt.perWorkerMu.Unlock()
	h, ok := rt.perWorkerLat[id]
	if !ok {
		h = rt.cfg.Observe.Histogram("octgb_fabric_upstream_seconds", `worker="`+id+`"`, "Upstream request latency by worker shard.")
		rt.perWorkerLat[id] = h
	}
	return h
}

// retryableStatus reports admission rejects worth spilling to a replica:
// the worker is alive but full (429) or draining (503). Anything else —
// including eval_failed 500s, which are deterministic for the payload —
// is relayed as-is rather than retried.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// tryEach walks the owner order: transport errors and admission rejects
// move to the next owner; the first relayable response wins. The last
// response is relayed even if it is a reject, so a fully-loaded fleet
// still answers with the workers' own backpressure contract.
func (rt *Router) tryEach(ctx context.Context, order []string, path, contentType string, body []byte) (*http.Response, string, error) {
	var lastErr error
	for i, id := range order {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		if i > 0 {
			rt.met.retries.Add(1)
			if rt.cfg.Observe != nil {
				rt.cfg.Observe.Counter("octgb_fabric_retries_total", "", "Failover retries onto a replica shard.").Inc()
			}
		}
		resp, err := rt.send(ctx, http.MethodPost, id, path, contentType, body)
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) && i < len(order)-1 {
			resp.Body.Close()
			continue
		}
		return resp, id, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no owners reachable")
	}
	return nil, "", lastErr
}

// relay copies an upstream response to the client, stamping the serving
// shard, optionally transforming a successful body.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, worker string, transform func(worker string, body []byte) []byte) {
	defer resp.Body.Close()
	rt.met.forwarded.Add(1)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, "upstream_failed", "torn upstream response")
		return
	}
	if transform != nil && resp.StatusCode < 300 {
		body = transform(worker, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(WorkerHeader, worker)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// handleStreamCreate routes a session create by molecule hash and rewrites
// the returned session ID into routed form ("worker~sid") so every later
// frame carries its shard.
func (rt *Router) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeRouterError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req serve.StreamCreateRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Molecule.Atoms) == 0 {
		writeRouterError(w, http.StatusBadRequest, "bad_request", "invalid stream create request")
		return
	}
	rt.forward(w, r, hashAtoms(req.Molecule.Atoms), body, func(worker string, b []byte) []byte {
		return rewriteSessionID(b, func(sid string) string { return worker + sessionIDSep + sid })
	})
}

// handleStreamSticky forwards /v1/stream/{worker~sid}[/frame|/close] to
// the one shard holding the session's state. There is no failover here by
// design — incremental session state lives on exactly one worker — so a
// dead shard is a truly lost session: the existing 404 token contract.
func (rt *Router) handleStreamSticky(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/stream/")
	routedID, suffix, _ := strings.Cut(rest, "/")
	worker, sid, found := strings.Cut(routedID, sessionIDSep)
	if !found || worker == "" || sid == "" {
		rt.met.lostSessions.Add(1)
		writeRouterError(w, http.StatusNotFound, "not_found", "unknown session "+routedID)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	path := "/v1/stream/" + sid
	if suffix != "" {
		path += "/" + suffix
	}
	resp, err := rt.send(r.Context(), r.Method, worker, path, r.Header.Get("Content-Type"), body)
	if err != nil {
		// The shard is gone (unregistered, or died under the session —
		// send has suspected it, funnelling ring removal through
		// membership): report the loss with the token an eviction uses.
		rt.met.lostSessions.Add(1)
		rt.lostSessionCounter().Inc()
		writeRouterError(w, http.StatusNotFound, "not_found", "session shard lost: "+routedID)
		return
	}
	rt.relay(w, resp, worker, func(_ string, b []byte) []byte {
		return rewriteSessionID(b, func(string) string { return routedID })
	})
}

func (rt *Router) lostSessionCounter() *obs.Counter {
	if rt.cfg.Observe == nil {
		return nil
	}
	return rt.cfg.Observe.Counter("octgb_fabric_lost_sessions_total", "", "Sticky stream requests whose owning shard was gone (404 not_found).")
}

// rewriteSessionID rewrites the "session_id" field of a JSON body through
// fn, leaving every other field's raw bytes untouched. Bodies without the
// field (or non-JSON bodies) pass through unchanged.
func rewriteSessionID(body []byte, fn func(string) string) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return body
	}
	raw, ok := m["session_id"]
	if !ok {
		return body
	}
	var sid string
	if err := json.Unmarshal(raw, &sid); err != nil || sid == "" {
		return body
	}
	out, err := json.Marshal(fn(sid))
	if err != nil {
		return body
	}
	m["session_id"] = out
	b, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return b
}

// RouterStats is the router's GET /stats payload.
type RouterStats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Workers       []MemberInfo `json:"workers"`

	Ring struct {
		Members int `json:"members"`
		VNodes  int `json:"vnodes"`
	} `json:"ring"`

	Requests struct {
		Forwarded      int64 `json:"forwarded"`
		Retries        int64 `json:"retries"`
		Spills         int64 `json:"spills"`
		HotSpreads     int64 `json:"hot_spreads"`
		NoWorkers      int64 `json:"no_workers"`
		UpstreamFailed int64 `json:"upstream_failed"`
		LostSessions   int64 `json:"lost_sessions"`
	} `json:"requests"`

	Membership struct {
		Joins    int64 `json:"joins"`
		Goodbyes int64 `json:"goodbyes"`
		Failures int64 `json:"failures"`
		Rejects  int64 `json:"rejects"`
	} `json:"membership"`

	// Deprecated: the router no longer hedges requests; both fields are
	// always zero and kept only for readers of the old schema.
	Hedge struct {
		Launched int64 `json:"launched"`
		Wins     int64 `json:"wins"`
	} `json:"hedge"`
}

// Stats returns a point-in-time stats snapshot.
func (rt *Router) Stats() RouterStats {
	var out RouterStats
	out.UptimeSeconds = time.Since(rt.met.start).Seconds()
	out.Workers = rt.mem.Snapshot()
	out.Ring.Members = rt.mem.Ring().Size()
	out.Ring.VNodes = rt.mem.Ring().vnodes
	out.Requests.Forwarded = rt.met.forwarded.Load()
	out.Requests.Retries = rt.met.retries.Load()
	out.Requests.Spills = rt.met.spills.Load()
	out.Requests.HotSpreads = rt.met.hotSpreads.Load()
	out.Requests.NoWorkers = rt.met.noWorkers.Load()
	out.Requests.UpstreamFailed = rt.met.upstreamFailed.Load()
	out.Requests.LostSessions = rt.met.lostSessions.Load()
	out.Membership.Joins, out.Membership.Goodbyes, out.Membership.Failures, out.Membership.Rejects = rt.mem.Counters()
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeRouterError(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rt.Stats())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.mem.Ring().Size() == 0 {
		writeRouterError(w, http.StatusServiceUnavailable, "no_workers", "no workers registered")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","workers":%d}`+"\n", rt.mem.Ring().Size())
}
