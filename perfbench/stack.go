package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"octgb/internal/core"
	"octgb/internal/fabric"
	"octgb/internal/obs"
	"octgb/internal/serve"
	"octgb/internal/surface"
)

// slots returns Workers × Threads for each of servers engine servers
// sharing this process: together they get nproc eval slots (at least one
// each), with the shipped two threads per evaluation where a server's share
// allows it.
func slots(servers int) (workers, threads int) {
	share := max(1, runtime.NumCPU()/servers)
	threads = min(2, share)
	return max(1, share/threads), threads
}

// serverConfig is serve.Config as cmd/epolserve builds it from its default
// flags, except for the listen address and the eval slots, capped for one
// of servers servers in this process.
func serverConfig(servers int) serve.Config {
	w, t := slots(servers)
	return serve.Config{
		Addr:            "127.0.0.1:0",
		Workers:         w,
		Threads:         t,
		Ranks:           1,
		MaxQueue:        64,
		MaxCacheBytes:   256 << 20,
		MaxAtoms:        200000,
		BatchWindow:     5 * time.Millisecond,
		MaxSessions:     8,
		SessionIdle:     5 * time.Minute,
		DefaultDeadline: 60 * time.Second,
		BornEps:         0.9,
		EpolEps:         0.9,
		Precision:       core.Float64,
		Surface:         surface.Options{SubdivLevel: 1, Degree: 1},
		Observe:         obs.New(),
	}
}

// stack is the in-process serving deployment a workload drives: one or
// more engine servers, optionally fronted by a fabric router.
type stack struct {
	servers []*serve.Server
	agents  []*fabric.Worker
	router  *fabric.Router
	// workerURL maps a worker ID ("w0", ...) or "" (a lone server) to its
	// base URL.
	workerURL map[string]string
	// url is the base URL the load targets: the router when there is one.
	url string
}

// bootServer starts one engine server on a loopback port.
func bootServer() (*stack, error) {
	s := serve.New(serverConfig(1))
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	u := "http://" + s.Addr()
	return &stack{servers: []*serve.Server{s}, workerURL: map[string]string{"": u}, url: u}, nil
}

// bootFabric starts a router as cmd/epolrouter ships it (adaptive hedging,
// R=2, observability on) fronting n engine workers joined over the
// membership protocol, and waits for the full ring.
func bootFabric(n int) (*stack, error) {
	rt := fabric.NewRouter(fabric.RouterConfig{
		Addr:           "127.0.0.1:0",
		MembershipAddr: "127.0.0.1:0",
		Observe:        obs.New(),
	})
	if err := rt.Start(); err != nil {
		return nil, fmt.Errorf("start router: %w", err)
	}
	st := &stack{router: rt, workerURL: map[string]string{}, url: "http://" + rt.Addr()}
	for i := 0; i < n; i++ {
		s := serve.New(serverConfig(n))
		st.servers = append(st.servers, s)
		if err := s.Start(); err != nil {
			st.shutdown()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		id := fmt.Sprintf("w%d", i)
		a, err := fabric.StartWorker(fabric.WorkerConfig{
			RouterAddr: rt.MembershipAddr(),
			WorkerID:   id,
			Advertise:  s.Addr(),
			Epoch:      uint64(time.Now().UnixNano()),
			Load:       fabric.ServeLoad(s),
		})
		if err != nil {
			st.shutdown()
			return nil, fmt.Errorf("start worker agent: %w", err)
		}
		st.agents = append(st.agents, a)
		st.workerURL[id] = "http://" + s.Addr()
		if !a.WaitRegistered(10 * time.Second) {
			st.shutdown()
			return nil, errors.New("worker did not register with the router")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.Membership().Ring().Size() < n {
		if time.Now().After(deadline) {
			st.shutdown()
			return nil, fmt.Errorf("ring has %d of %d workers", rt.Membership().Ring().Size(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

// shutdown stops every component and waits for each to finish.
func (st *stack) shutdown() {
	for _, a := range st.agents {
		a.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.router != nil {
		_ = st.router.Shutdown(ctx) // a router that fails to drain in time holds no results
	}
	for _, s := range st.servers {
		_ = s.Shutdown(ctx) // same: the run's results are already recorded
	}
}
