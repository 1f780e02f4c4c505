package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"octgb/internal/serve"
)

// firstBodies returns the first request bodies every workload sends for a
// seed, at full size.
func firstBodies(seed int64) [][]byte {
	var out [][]byte
	for _, m := range coldRound(seed, 0, 1) {
		out = append(out, energyBody(m))
	}
	for _, m := range hotSet(seed, 1) {
		out = append(out, energyBody(m))
	}
	out = append(out, mustJSON(poissonSchedule(seed, warmRate, 1, hotVariants)))
	pairs := dockPairs(seed, 1)
	for i := range pairs {
		out = append(out, mustJSON(sweepRequest(seed, pairs[i], i, sweepPoses)))
	}
	mol := streamMolecule(seed, 0, 1)
	out = append(out, mustJSON(serve.StreamCreateRequest{Molecule: serve.FromMolecule(mol)}))
	for _, f := range streamFrames(seed, 0, mol, 3) {
		out = append(out, mustJSON(f))
	}
	return out
}

func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBodiesPinnedBySeed pins the generated inputs: the same seed gives
// byte-identical request bodies, another seed different ones, and the
// digest for seed 1 is fixed, so a change to any generator the inputs come
// from shows up here rather than as a silent shift in the benchmark.
func TestBodiesPinnedBySeed(t *testing.T) {
	a, b := firstBodies(1), firstBodies(1)
	if len(a) != len(b) {
		t.Fatalf("body count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between two generations with seed 1", i)
		}
	}
	if digest(a) == digest(firstBodies(2)) {
		t.Fatal("seeds 1 and 2 generate the same bodies")
	}
	const want = "a97c6606e2c95157ceb5b6eb78c15f51545524dc894427b374de87257c9c5b52"
	if got := digest(a); got != want {
		t.Fatalf("seed 1 body digest = %s, want %s", got, want)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	cases := []struct {
		n       int
		wantPct float64
	}{
		{20000, 99.9},
		{1000, 99},
		{902, 99},
		{901, 98},
		{200, 95},
		{100, 90},
		{92, 90},
		{91, 85},
		{67, 85},
		{50, 80},
		{15, 100}, // too few for any ladder percentile: the maximum
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		if got.TailPct != c.wantPct {
			t.Errorf("n=%d: tail at p%g, want p%g", c.n, got.TailPct, c.wantPct)
			continue
		}
		if c.wantPct < 100 && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, got.TailPct, got.Beyond)
		}
		if got.N != c.n || got.P50 != quantile(sortedSeq(c.n), 0.5) {
			t.Errorf("n=%d: p50 %g over %d samples", c.n, got.P50, got.N)
		}
	}
}

func sortedSeq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// TestOpenLoopTimedFromDueTime stalls the first request of an open-loop
// schedule with one sender: the requests due during the stall must carry
// the wait in their latency, measured from their due time, and report it
// as lateness.
func TestOpenLoopTimedFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	sched := []arrival{{DueNS: 0}, {DueNS: int64(10 * time.Millisecond)}, {DueNS: int64(20 * time.Millisecond)}}
	res := openLoop(1, sched, func(a arrival) reply {
		if a.DueNS == 0 {
			time.Sleep(stall)
		}
		return reply{Status: 200}
	})
	for i, r := range res[1:] {
		due := time.Duration(sched[i+1].DueNS)
		waited := float64((stall - due).Milliseconds())
		if r.LateMS < waited-5 {
			t.Errorf("request %d: lateness %.1f ms, want at least %.0f ms", i+1, r.LateMS, waited)
		}
		if r.LatencyMS < r.LateMS {
			t.Errorf("request %d: latency %.1f ms is below its lateness %.1f ms", i+1, r.LatencyMS, r.LateMS)
		}
	}
	if res[0].LatencyMS < float64(stall.Milliseconds()) {
		t.Errorf("stalled request latency %.1f ms, want at least %v", res[0].LatencyMS, stall)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	s := poissonSchedule(1, 200, 10, 8)
	if n := len(s); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 10 s at 200/s", n)
	}
	for i := 1; i < len(s); i++ {
		if s[i].DueNS < s[i-1].DueNS {
			t.Fatal("arrivals are not in due-time order")
		}
	}
}

// TestOverheadPair checks that a paired replay records the traced run's
// extra time, in either order, and charges counts only to the traced run.
func TestOverheadPair(t *testing.T) {
	tr := newTracer()
	var ov overhead
	counts := tally{}
	for i := 0; i < 4; i++ {
		ov.pair(tr, counts, func(tr *tracer, c tally) {
			c.add("calls", 1)
			if tr != nil {
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
	if len(ov) != 4 || len(counts["calls"]) != 4 {
		t.Fatalf("%d differences, %d traced calls counted; want 4 and 4", len(ov), len(counts["calls"]))
	}
	for i, d := range ov {
		if d < 4 {
			t.Errorf("pair %d: traced run took %.2f ms longer, want at least 4", i, d)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "root", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{Op: 1, ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[string]float64{"root": 50e-6, "a": 25e-6, "b": 30e-6, "c": 5e-6}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v ms, want %g", name, got, w)
		}
	}
}

func TestCompareIncomparableStamps(t *testing.T) {
	a := &record{Workload: "cold-energy", Stamp: stamp{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		Metrics: map[string]metric{"p50_ms": {10, "ms"}}}
	b := *a
	b.Stamp.GOMAXPROCS = 1
	b.Metrics = map[string]metric{"p50_ms": {20, "ms"}}
	var out strings.Builder
	if err := compare(a, &b, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "incomparable") || strings.Contains(out.String(), "regression") {
		t.Fatalf("mismatched stamps: %q", out.String())
	}
	b.Stamp = a.Stamp
	out.Reset()
	if err := compare(a, &b, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "regression") {
		t.Fatalf("doubled p50 on equal stamps: %q", out.String())
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// registry the program reports from in step.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for name := range spanMetrics {
		unitOf(name) // panics on an unregistered name
	}
}

// TestSmoke runs every workload end to end at toy size, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted with
// its unit and that every answer was correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := readBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w.name, seed: 3, seconds: 1.5, trace: traced, smoke: true,
				spans: filepath.Join(t.TempDir(), "spans.jsonl")}
			var log strings.Builder
			rec, err := run(opt, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, log.String())
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			defs := bj.EndToEnd
			if traced {
				defs = bj.PerLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d defined", w.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.Name, m, d.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				switch w.name {
				case "warm-routed":
					if r := rec.Metrics["serve.cache_hit_ratio"].Value; r != 1 {
						t.Errorf("warm-routed cache hit ratio %v, want 1", r)
					}
				case "cold-energy":
					if r := rec.Metrics["serve.cache_hit_ratio"].Value; r != 0 {
						t.Errorf("cold-energy cache hit ratio %v, want 0", r)
					}
				}
				if _, err := os.Stat(opt.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}
