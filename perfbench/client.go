package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"octgb/internal/fabric"
	"octgb/internal/serve"
)

// newClient returns the load generator's HTTP client: one process, at most
// nproc connections per host.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	Status int
	Body   []byte
	Worker string // fabric.WorkerHeader, set on routed replies
	Err    error  // transport error or timeout
}

// ok reports whether the exchange succeeded at the HTTP level. 429, 503,
// 504, any other non-2xx status and transport errors all count as failed
// operations.
func (r reply) ok() bool { return r.Err == nil && r.Status/100 == 2 }

func (r reply) String() string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return fmt.Sprintf("HTTP %d: %.200s", r.Status, r.Body)
}

func send(c *http.Client, method, url string, body []byte) reply {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{Err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{Status: resp.StatusCode, Body: b, Worker: resp.Header.Get(fabric.WorkerHeader), Err: err}
}

func post(c *http.Client, url string, body []byte) reply { return send(c, http.MethodPost, url, body) }

func getJSON(c *http.Client, url string, v any) error {
	r := send(c, http.MethodGet, url, nil)
	if !r.ok() {
		return fmt.Errorf("GET %s: %v", url, r)
	}
	return json.Unmarshal(r.Body, v)
}

// serveStats sums the /stats counters of every engine server in the stack.
func serveStats(c *http.Client, st *stack) (serve.StatsSnapshot, error) {
	var sum serve.StatsSnapshot
	for _, u := range st.workerURL {
		var s serve.StatsSnapshot
		if err := getJSON(c, u+"/stats", &s); err != nil {
			return sum, err
		}
		sum.Cache.Hits += s.Cache.Hits
		sum.Cache.Misses += s.Cache.Misses
		sum.Cache.Coalesced += s.Cache.Coalesced
		sum.Cache.Entries += s.Cache.Entries
		sum.Cache.Bytes += s.Cache.Bytes
		sum.Cache.MaxBytes += s.Cache.MaxBytes
		sum.Cache.Evictions += s.Cache.Evictions
		sum.Admission.RejectedQueueFull += s.Admission.RejectedQueueFull
		sum.Admission.RejectedDraining += s.Admission.RejectedDraining
		sum.Admission.ShedLoad += s.Admission.ShedLoad
		sum.Admission.DeadlineMisses += s.Admission.DeadlineMisses
		sum.Batching.BatchesRun += s.Batching.BatchesRun
		sum.Batching.BatchedPoses += s.Batching.BatchedPoses
	}
	return sum, nil
}

// routerStats reads the router's /stats, or zeros when there is no router.
func routerStats(c *http.Client, st *stack) (fabric.RouterStats, error) {
	var rs fabric.RouterStats
	if st.router == nil {
		return rs, nil
	}
	return rs, getJSON(c, st.url+"/stats", &rs)
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one completed, until stop reports true; op performs
// request number i of client w. It returns once every client has finished.
func closedLoop(clients int, stop func() bool, op func(w, i int)) {
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop(); i++ {
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// openResult is one open-loop request's outcome. Latency runs from the
// moment the request was due, so a stall delays every later request's
// clock too; Late is how far after its due time the request was sent.
type openResult struct {
	Arrival   arrival
	LatencyMS float64
	LateMS    float64
	Reply     reply
}

// openLoop sends the scheduled arrivals on time from a dispatcher, over at
// most senders concurrent connections. A request that finds every sender
// busy waits for one; its wait counts in its latency and in its lateness.
func openLoop(senders int, sched []arrival, do func(a arrival) reply) []openResult {
	out := make([]openResult, len(sched))
	jobs := make(chan int, len(sched)) // sized to the schedule, so dispatch never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				due := start.Add(time.Duration(sched[i].DueNS))
				sent := time.Now()
				r := do(sched[i])
				out[i] = openResult{
					Arrival:   sched[i],
					LatencyMS: float64(time.Since(due).Nanoseconds()) / 1e6,
					LateMS:    float64(sent.Sub(due).Nanoseconds()) / 1e6,
					Reply:     r,
				}
			}
		}()
	}
	for i, a := range sched {
		if d := time.Until(start.Add(time.Duration(a.DueNS))); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
