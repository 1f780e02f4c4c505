package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call: a layer's public function, or a benchmark step
// that groups such calls. Spans of one operation share Op; Parent is the ID
// of the enclosing span (0 for the operation's root).
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID uint64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// scope is an open span; close it with end.
type scope struct {
	t  *tracer
	sp span
}

// begin opens a span named name under parent (nil for an operation root,
// which starts a new operation).
func (t *tracer) begin(name string, parent *scope) *scope {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	sc := &scope{t: t, sp: span{ID: id, Name: name, Op: id}}
	if parent != nil {
		sc.sp.Op, sc.sp.Parent = parent.sp.Op, parent.sp.ID
	}
	sc.sp.Start = time.Since(t.origin).Nanoseconds()
	return sc
}

func (sc *scope) end() {
	if sc == nil {
		return
	}
	sc.sp.End = time.Since(sc.t.origin).Nanoseconds()
	sc.t.mu.Lock()
	sc.t.spans = append(sc.t.spans, sc.sp)
	sc.t.mu.Unlock()
}

// do runs fn inside a span named name under parent.
func (t *tracer) do(name string, parent *scope, fn func()) {
	sc := t.begin(name, parent)
	fn()
	sc.end()
}

// overhead holds, per replayed operation, how much longer the operation
// took with its spans recorded than with tracing off (ms).
type overhead []float64

// pair runs op once with tracing off and once under tr, and records the
// traced run's extra time. The order alternates from one operation to the
// next, so neither run always finds the caches warmed by the other. Only
// the traced run's counts go to t.
func (o *overhead) pair(tr *tracer, t tally, op func(tr *tracer, t tally)) {
	run := func(tr *tracer, t tally) time.Duration {
		t0 := time.Now()
		op(tr, t)
		return time.Since(t0)
	}
	var off, on time.Duration
	if len(*o)%2 == 0 {
		off = run(nil, tally{})
		on = run(tr, t)
	} else {
		on = run(tr, t)
		off = run(nil, tally{})
	}
	*o = append(*o, float64((on-off).Nanoseconds())/1e6)
}

// selfTimes returns, per span name, the self time of every span with that
// name in milliseconds: the span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		covered := coveredNS(s, kids[s.ID])
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
