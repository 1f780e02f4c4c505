// Command perfbench is the repository's benchmark: four seeded serving
// workloads driven over loopback HTTP against an in-process deployment of
// the serving stack, timed end to end, and (with --trace 1) split into
// per-layer spans. See README.md for the workloads, the metrics and how to
// read a trace.
//
// Usage:
//
//	perfbench --workload cold-energy --seed 1 --seconds 12 --trace 0
//	perfbench --workload warm-routed --seed 1 --seconds 12 --trace 1 --spans spans.jsonl
//	perfbench compare old.json new.json
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full record, machine stamp included, which --out also writes to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:], os.Stdout)
	} else {
		err = benchMain(os.Args[1:], os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	spans    string
}

func benchMain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&opt.seconds, "seconds", 12, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	fs.BoolVar(&opt.smoke, "smoke", false, "toy-sized inputs and short phases (for tests)")
	fs.StringVar(&opt.out, "out", "", "also write the full result record (with machine stamp) to this file")
	fs.StringVar(&opt.spans, "spans", "", "with --trace 1, write the spans here as JSON lines (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if opt.trace && opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", opt.workload, opt.seed))
	}
	rec, err := run(opt, stderr)
	if err != nil {
		return err
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if opt.out != "" {
		if err := os.WriteFile(opt.out, append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench record: %s\n%s\n", full, last)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's full result.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Latency is the primary operation's latency summary: the median, and
	// the tail at the highest percentile (up to the workload's target) with
	// at least 10 samples beyond it. The tail is reported, not gated: see
	// README.md.
	Latency *timing `json:"latency,omitempty"`
	// Cache is the engine servers' prepared-problem cache, summed over
	// the servers, when the measurement ended (untraced runs only).
	Cache *cacheReading `json:"cache,omitempty"`
	// Samples states how many operations a metric summarizes.
	Samples map[string]string `json:"samples,omitempty"`

	wrong int // failed operations whose answer was wrong
}

type cacheReading struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Evictions int64 `json:"evictions"`
}

// bench carries what every workload needs: its options, the input scale
// and the load generator's client.
type bench struct {
	opt   options
	scale float64
	c     *http.Client
	log   io.Writer
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.log, format+"\n", args...) }

// pass is what one measurement pass observed.
type pass struct {
	lat        []float64 // primary operation latencies (ms)
	attempted  int
	failed     int
	wrong      int     // failed operations whose answer was wrong
	ops        float64 // operations for ops_per_s
	atoms      float64 // atoms evaluated for atoms_per_s
	perSecond  float64 // seconds ops and atoms are divided by
	rtt        []float64
	stages     []float64 // sum of the reply's timings stages, parallel to rtt
	queue      []float64
	create     []float64 // stream session creates (ms)
	late       []float64 // open-loop lateness (ms)
	batchPoses []float64
	failures   []string
}

func (p *pass) fail(wrong bool, format string, args ...any) {
	p.failed++
	if wrong {
		p.wrong++
	}
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one traffic mix. measure drives the stack for dur and
// records what it saw; verify checks the answers measure recorded and
// returns epol_rel_err; replay repeats the same inputs' operations
// in-process with a span around every call into a layer.
type workload struct {
	name  string
	why   string
	setup func(b *bench) (wlState, error)
}

// wlState is one set-up deployment's workload-specific state.
type wlState interface {
	measure(b *bench, dur time.Duration, tr *tracer) *pass
	verify(b *bench, p *pass) (relErr float64)
	replay(b *bench, tr *tracer, ov *overhead, until time.Time, m map[string]float64)
	stack() *stack
}

var workloads = []workload{coldEnergy, warmRouted, dockingSweep, mdStream}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// An untraced run sets up at least minSetups times, and more, up to
// maxSetups, while the set-ups so far took less than setupBudget in all;
// setup_s is the median. Quick set-ups thus get enough repeats for a
// steady median, and slow ones cost at most a few of their own length.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

func run(opt options, logw io.Writer) (*record, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{opt: opt, scale: 1, c: newClient(), log: logw}
	if opt.smoke {
		b.scale = 0.15
	}
	defer b.c.CloseIdleConnections()
	rec := &record{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Smoke: opt.smoke,
		Stamp: machineStamp(), Metrics: map[string]metric{}, Samples: map[string]string{}}
	b.logf("perfbench: %s seed=%d seconds=%g trace=%v stamp=%s", w.name, opt.seed, opt.seconds, opt.trace, rec.Stamp)
	dur := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		err = runTraced(b, w, dur, rec)
	} else {
		err = runUntraced(b, w, dur, rec)
	}
	if err != nil {
		return nil, err
	}
	for _, k := range sortedKeys(rec.Metrics) {
		b.logf("  %-28s %14.6g %s", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	for _, f := range rec.Failures {
		b.logf("  FAILED: %s", f)
	}
	return rec, nil
}

// setupTimed sets the workload up and returns the seconds it took.
func setupTimed(b *bench, w workload) (wlState, float64, error) {
	t0 := time.Now()
	s, err := w.setup(b)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return s, time.Since(t0).Seconds(), nil
}

func runUntraced(b *bench, w workload, dur time.Duration, rec *record) error {
	var setups []float64
	var s wlState
	for total := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget.Seconds()); {
		if s != nil {
			s.stack().shutdown()
		}
		var sec float64
		var err error
		if s, sec, err = setupTimed(b, w); err != nil {
			return err
		}
		setups = append(setups, sec)
		total += sec
	}
	defer s.stack().shutdown()
	p := s.measure(b, dur, nil)
	// Peak RSS and the cache are read before verify, so that neither counts
	// the benchmark's own reference evaluations.
	rss := rssPeakMB()
	end, err := serveStats(b.c, s.stack())
	if err != nil {
		return err
	}
	c := end.Cache
	rec.Cache = &cacheReading{Entries: c.Entries, Bytes: c.Bytes, MaxBytes: c.MaxBytes, Evictions: c.Evictions}
	b.logf("perfbench: peak RSS %.1f MB; cache %d entries, %.1f of %.0f MB, %d evictions",
		rss, c.Entries, float64(c.Bytes)/(1<<20), float64(c.MaxBytes)/(1<<20), c.Evictions)
	t0 := time.Now()
	relErr := s.verify(b, p)
	b.logf("perfbench: %d operations measured, checks took %.1f s", p.attempted, time.Since(t0).Seconds())
	finish(rec, p)

	t := summarize(p.lat)
	set := func(name string, v float64) { rec.Metrics[name] = metric{v, unitOf(name)} }
	set("setup_s", median(setups))
	set("rss_peak_mb", rss)
	set("p50_ms", t.P50)
	set("ops_per_s", p.ops/p.perSecond)
	set("atoms_per_s", p.atoms/p.perSecond)
	set("epol_rel_err", relErr)
	rec.Samples["p50_ms"] = fmt.Sprintf("median of %d", t.N)
	rec.Latency = &t
	b.logf("  latency: median %.4g ms, p%g %.4g ms (%d samples, %d beyond the tail)", t.P50, t.TailPct, t.Tail, t.N, t.Beyond)
	rec.Samples["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	return nil
}

func finish(rec *record, p *pass) {
	rec.Attempted += p.attempted
	rec.Failed += p.failed
	rec.Failures = append(rec.Failures, p.failures...)
	rec.wrong += p.wrong
	rec.Correct = rec.Attempted > 0 && rec.wrong == 0
}

// runTraced is the per-layer run: a traced pass over HTTP for half of the
// time, then, for the other half, the in-process replay of the same inputs
// with a span around every call into a layer. The replay runs every
// operation twice, traced and untraced, and the median of the differences
// is the tracing overhead.
func runTraced(b *bench, w workload, dur time.Duration, rec *record) error {
	s, _, err := setupTimed(b, w)
	if err != nil {
		return err
	}
	defer s.stack().shutdown()
	st := s.stack()
	before, err := serveStats(b.c, st)
	if err != nil {
		return err
	}
	rBefore, err := routerStats(b.c, st)
	if err != nil {
		return err
	}
	tr := newTracer()
	p := s.measure(b, dur/2, tr)
	after, err := serveStats(b.c, st)
	if err != nil {
		return err
	}
	rAfter, err := routerStats(b.c, st)
	if err != nil {
		return err
	}
	s.verify(b, p)
	finish(rec, p)

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	var ov overhead
	s.replay(b, tr, &ov, time.Now().Add(dur/2), m)
	layerFromSpans(tr, m)
	layerFromHTTP(p, before, after, rBefore, rAfter, m)
	if len(ov) > 0 {
		m["trace.overhead_ms"] = median(ov)
	}
	for name, v := range m {
		rec.Metrics[name] = metric{v, unitOf(name)}
	}
	rec.Samples["trace.overhead_ms"] = fmt.Sprintf("median of %d paired replays", len(ov))
	if b.opt.spans != "" {
		if err := tr.write(b.opt.spans); err != nil {
			return err
		}
		b.logf("perfbench: %d spans written to %s", len(tr.spans), b.opt.spans)
	}
	return nil
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("metric " + name + " is not registered") // every emitted name comes from the registry
}

// rssPeakMB reads the process's peak resident set size.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
