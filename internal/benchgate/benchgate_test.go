package benchgate

import (
	"bytes"
	"strings"
	"testing"
)

func TestGateCheck(t *testing.T) {
	baseline := []Result{
		{Name: "k/slower", NsPerOp: 100},
		{Name: "k/allocs", NsPerOp: 100},
		{Name: "k/ungated", NsPerOp: 100},
		{Name: "k/faster", NsPerOp: 100, AllocsPerOp: 3},
	}
	fresh := []Result{
		{Name: "k/slower", NsPerOp: 120},
		{Name: "k/allocs", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "k/ungated", NsPerOp: 200, AllocsPerOp: 5},
		{Name: "k/faster", NsPerOp: 50, AllocsPerOp: 2},
		{Name: "k/new", NsPerOp: 10},
	}
	gate := Gate{Tol: 0.15, Label: "kernel", Width: 12, Gated: func(name string) bool { return name != "k/ungated" }}
	var out bytes.Buffer
	if got := gate.Check(&out, baseline, fresh); got != 2 {
		t.Fatalf("failed = %d, want 2\n%s", got, &out)
	}
	want := map[string]string{
		"k/slower":  "100.0 120.0 +20.0% REGRESSED",
		"k/allocs":  "100.0 100.0 +0.0% ALLOCS",
		"k/ungated": "100.0 200.0 +100.0%",
		"k/faster":  "100.0 50.0 -50.0%",
		"k/new":     "(new) 10.0 -",
	}
	lines := strings.Split(out.String(), "\n")
	if !strings.HasPrefix(lines[1], "kernel       baseline ns/op") {
		t.Errorf("header %q", lines[1])
	}
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if w, ok := want[f[0]]; ok {
			if got := strings.Join(f[1:], " "); got != w {
				t.Errorf("row %s: %q, want %q", f[0], got, w)
			}
			delete(want, f[0])
		}
	}
	if len(want) != 0 {
		t.Errorf("rows missing: %v\n%s", want, &out)
	}

	// A nil predicate gates everything: the ungated row now fails twice.
	gate.Gated = nil
	if got := gate.Check(&bytes.Buffer{}, baseline, fresh); got != 4 {
		t.Fatalf("failed with every row gated = %d, want 4", got)
	}
}

func TestBestReportsAllocations(t *testing.T) {
	var sink []byte
	r := Best("alloc", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = make([]byte, 64)
		}
	})
	_ = sink
	if r.Name != "alloc" || r.NsPerOp <= 0 || r.AllocsPerOp != 1 || r.BytesPerOp != 64 {
		t.Fatalf("Best = %+v, want name alloc, positive ns/op, 1 alloc of 64 B", r)
	}
}
