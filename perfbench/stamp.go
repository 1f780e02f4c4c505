package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// stamp describes the machine a result was measured on. Results are
// comparable only between equal stamps.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
	GoVersion  string `json:"go_version"`
}

func machineStamp() stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	s.AVX2, s.FMA = cpuFlags("/proc/cpuinfo")
	return s
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d avx2=%v fma=%v %s", s.NProc, s.GOMAXPROCS, s.AVX2, s.FMA, s.GoVersion)
}

// cpuFlags reports whether the first processor's flags line lists avx2
// and fma.
func cpuFlags(path string) (avx2, fma bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		for _, f := range strings.Fields(val) {
			avx2 = avx2 || f == "avx2"
			fma = fma || f == "fma"
		}
		return avx2, fma
	}
	return false, false
}

// verdict classifies one metric of a new result against an old one.
func verdict(d metricDef, old, cur float64) string {
	if old == 0 {
		return "no baseline"
	}
	worse := (cur - old) / old
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return fmt.Sprintf("regression (%+.1f%%, bound %.0f%%)", 100*worse, 100*d.Bound)
	case -worse > d.Bound:
		return fmt.Sprintf("improvement (%+.1f%%)", -100*worse)
	default:
		return fmt.Sprintf("within bound (%+.1f%%)", -100*worse)
	}
}

// compare reports every end-to-end metric of two records of the same
// workload. Records measured on different machine stamps are reported as
// incomparable, never as a regression.
func compare(old, cur *record, w io.Writer) error {
	if old.Workload != cur.Workload || old.Trace != cur.Trace {
		return fmt.Errorf("records differ in workload or mode: %s/trace=%v vs %s/trace=%v", old.Workload, old.Trace, cur.Workload, cur.Trace)
	}
	if old.Stamp != cur.Stamp {
		fmt.Fprintf(w, "%s: incomparable: machine stamps differ\n  old: %s\n  new: %s\n", cur.Workload, old.Stamp, cur.Stamp)
		return nil
	}
	fmt.Fprintf(w, "%s (%s)\n", cur.Workload, cur.Stamp)
	defs := endToEnd
	if cur.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		o, n := old.Metrics[d.Name], cur.Metrics[d.Name]
		line := fmt.Sprintf("  %-28s %14.6g -> %-14.6g %-8s", d.Name, o.Value, n.Value, d.Unit)
		if d.Bound > 0 {
			line += " " + verdict(d, o.Value, n.Value)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain is `perfbench compare OLD NEW`: both files are records
// written with --out.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare OLD.json NEW.json")
	}
	old, err := readRecord(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readRecord(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(old, cur, out)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
