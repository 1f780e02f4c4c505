package fabric

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/serve"
	"octgb/internal/testutil"
)

// The chaos harness: a worker-crash matrix over victim index × crash
// mode, each cell asserting the fabric's degradation contract — no
// accepted energy/sweep request lost, ring convergence, router healthy.
//
// `go test` runs a single quick cell; `FABRIC_CHAOS=1 go test -run
// TestChaosWorkerCrashMatrix` (the Makefile's fabric-chaos target) runs
// the full matrix.

type chaosCase struct {
	name   string
	victim int
	mode   string // "http" = HTTP dies, membership lingers; "full" = both die
}

func chaosMatrix(full bool) []chaosCase {
	if !full {
		return []chaosCase{{name: "quick-full-crash", victim: 1, mode: "full"}}
	}
	var cases []chaosCase
	for victim := 0; victim < 3; victim++ {
		for _, mode := range []string{"http", "full"} {
			cases = append(cases, chaosCase{
				name:   fmt.Sprintf("victim%d-%s", victim, mode),
				victim: victim,
				mode:   mode,
			})
		}
	}
	return cases
}

func TestChaosWorkerCrashMatrix(t *testing.T) {
	defer testutil.Watchdog(t, 8*time.Minute)()
	full := os.Getenv("FABRIC_CHAOS") != ""
	for _, tc := range chaosMatrix(full) {
		t.Run(tc.name, func(t *testing.T) { runChaosCase(t, tc) })
	}
}

func runChaosCase(t *testing.T, tc chaosCase) {
	rt, front, workers := newFabric(t, 3, RouterConfig{})

	const nMol = 4
	mols := make([]serve.MoleculeJSON, nMol)
	for i := range mols {
		mols[i] = serve.FromMolecule(molecule.GenerateProtein(fmt.Sprintf("c%d", i), 25, int64(i+1)))
	}

	var failures atomic.Int64
	var firstFailure atomic.Value
	var sent atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postBody(t, front.URL+"/v1/energy", serve.EnergyRequest{Molecule: mols[(c+i)%nMol]})
				sent.Add(1)
				if resp.StatusCode != 200 {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("%d %s", resp.StatusCode, body))
				}
			}
		}(c)
	}

	time.Sleep(100 * time.Millisecond)
	victim := workers[tc.victim]
	switch tc.mode {
	case "full":
		victim.kill()
	case "http":
		// The HTTP side dies but heartbeats keep flowing — the crash is
		// discovered by a forwarded request, not by the failure detector.
		victim.ts.CloseClientConnections()
		victim.ts.Close()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("[%s] %d/%d requests lost; first: %v", tc.name, n, sent.Load(), firstFailure.Load())
	}
	if sent.Load() < 10 {
		t.Fatalf("[%s] only %d requests driven; harness too idle to mean anything", tc.name, sent.Load())
	}

	// Convergence: the victim leaves the ring (suspect path or heartbeat
	// timeout) and the router stays healthy on the survivors.
	deadline := time.Now().Add(5 * time.Second)
	for rt.mem.Ring().Size() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("[%s] ring stuck at %v", tc.name, rt.mem.Ring().Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, body := postBody(t, front.URL+"/v1/energy", serve.EnergyRequest{Molecule: mols[0]})
	if resp.StatusCode != 200 {
		t.Fatalf("[%s] post-crash request failed: %d %s", tc.name, resp.StatusCode, body)
	}
}
