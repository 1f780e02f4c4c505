package cluster

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"octgb/internal/testutil"
)

// runTCPGroup runs fn on every rank of a TCP group over loopback (root
// inline, workers as goroutines; the star unless opts has WithMesh) and
// tears the group down afterwards.
func runTCPGroup(p int, fn func(c Comm) error, opts ...TCPOption) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, p)
	comms := make([]Comm, p)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(addr, r, p, opts...)
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			errs[r] = fn(c)
		}(r)
	}
	root, err := NewTCPRoot(ln, p, opts...)
	if err != nil {
		return err
	}
	comms[0] = root
	if errs[0] = fn(root); errs[0] != nil {
		// A root that fails mid-collective leaves its peers blocked on
		// it; closing it unblocks them.
		root.(io.Closer).Close()
	}
	wg.Wait()
	for _, c := range comms {
		if cl, ok := c.(io.Closer); ok {
			cl.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// workloadSizes is the payload sweep of collectiveWorkload: empty,
// sub-chunk and multi-chunk pipelined payloads.
var workloadSizes = []int{0, 1, 5, 1000, 2*collChunkWords + 77}

// workloadCounts is the Allgatherv segment layout of sweep step si.
func workloadCounts(p, si int) []int {
	counts := make([]int, p)
	for r := range counts {
		counts[r] = (r*13 + si*7 + 3) % 29
	}
	return counts
}

// workloadRoot is the Bcast root of sweep step si.
func workloadRoot(p, si int) int { return (si + p - 1) % p }

// rankInputs is one rank's collective inputs for every sweep step.
type rankInputs struct {
	vals, segs, bcast [][]float64
}

// workloadInputs draws rank's deterministic pseudo-random inputs, seeded
// per (p, rank) so every transport and the sequential reference see
// identical data.
func workloadInputs(p, rank int) rankInputs {
	rng := rand.New(rand.NewSource(int64(1000*p + rank)))
	var in rankInputs
	for si, n := range workloadSizes {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		seg := make([]float64, workloadCounts(p, si)[rank])
		for i := range seg {
			seg[i] = rng.Float64()
		}
		bb := make([]float64, 1+si*200)
		for i := range bb {
			bb[i] = rng.Float64() + float64(rank)
		}
		in.vals = append(in.vals, v)
		in.segs = append(in.segs, seg)
		in.bcast = append(in.bcast, bb)
	}
	return in
}

// collectiveWorkload exercises every collective on workloadInputs across
// the size sweep and returns the concatenated per-rank outputs.
func collectiveWorkload(p int, run func(fn func(c Comm) error) error) ([][]float64, error) {
	results := make([][]float64, p)
	var mu sync.Mutex
	err := run(func(c Comm) error {
		rank := c.Rank()
		in := workloadInputs(p, rank)
		var got []float64
		for si := range workloadSizes {
			sum := append([]float64(nil), in.vals[si]...)
			mx := append([]float64(nil), in.vals[si]...)
			if err := c.AllreduceSum(sum); err != nil {
				return err
			}
			if err := c.AllreduceMax(mx); err != nil {
				return err
			}
			got = append(got, sum...)
			got = append(got, mx...)

			counts := workloadCounts(p, si)
			total := 0
			for _, n := range counts {
				total += n
			}
			out := make([]float64, total)
			if err := c.Allgatherv(in.segs[si], counts, out); err != nil {
				return err
			}
			got = append(got, out...)

			bb := append([]float64(nil), in.bcast[si]...)
			if err := c.Bcast(bb, workloadRoot(p, si)); err != nil {
				return err
			}
			got = append(got, bb...)

			if err := c.Barrier(); err != nil {
				return err
			}
		}
		mu.Lock()
		results[rank] = got
		mu.Unlock()
		return nil
	})
	return results, err
}

// sequentialReference computes, in one goroutine, the output every rank
// of collectiveWorkload must produce: the rank-order sum, the element-wise
// max, the concatenation by counts and the root's broadcast buffer.
func sequentialReference(p int) []float64 {
	ins := make([]rankInputs, p)
	for r := range ins {
		ins[r] = workloadInputs(p, r)
	}
	var want []float64
	for si, n := range workloadSizes {
		sum := make([]float64, n)
		mx := append([]float64(nil), ins[0].vals[si]...)
		for r := range ins {
			for i, v := range ins[r].vals[si] {
				sum[i] += v
				mx[i] = math.Max(mx[i], v)
			}
		}
		want = append(want, sum...)
		want = append(want, mx...)
		for r := range ins {
			want = append(want, ins[r].segs[si]...)
		}
		want = append(want, ins[workloadRoot(p, si)].bcast[si]...)
	}
	return want
}

// compareToReference checks every rank's output against the sequential
// reference at 1e-12 and against rank 0's output bitwise: the reductions
// must leave identical buffers on every rank.
func compareToReference(t *testing.T, label string, want []float64, got [][]float64) {
	t.Helper()
	for r := range got {
		if len(got[r]) != len(want) {
			t.Fatalf("%s: rank %d output length %d, reference %d", label, r, len(got[r]), len(want))
		}
		for i, a := range want {
			b := got[r][i]
			if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
				t.Fatalf("%s: rank %d word %d: got %v, reference %v", label, r, i, b, a)
			}
			if math.Float64bits(b) != math.Float64bits(got[0][i]) {
				t.Fatalf("%s: rank %d word %d: %v differs bitwise from rank 0's %v", label, r, i, b, got[0][i])
			}
		}
	}
}

// TestLocalCollectivesMatchSequentialReference is the core property test:
// every collective on the in-process transport against the sequential
// reference, across power-of-two and non-power-of-two rank counts.
func TestLocalCollectivesMatchSequentialReference(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		got, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
			return RunLocal(p, nil, fn)
		})
		if err != nil {
			t.Fatalf("p=%d local: %v", p, err)
		}
		compareToReference(t, fmt.Sprintf("local p=%d", p), sequentialReference(p), got)
	}
}

// TestMeshCollectivesMatchSequentialReference runs the same workload over
// the TCP worker-to-worker mesh.
func TestMeshCollectivesMatchSequentialReference(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	for _, p := range []int{1, 2, 3, 5, 8} {
		mesh, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
			return runTCPGroup(p, fn, WithMesh())
		})
		if err != nil {
			t.Fatalf("p=%d mesh: %v", p, err)
		}
		compareToReference(t, fmt.Sprintf("tcp mesh p=%d", p), sequentialReference(p), mesh)
	}
}

// TestTCPStarCollectivesStillMatch keeps the coalesced-write star path —
// the mesh fallback — honest against the sequential reference.
func TestTCPStarCollectivesStillMatch(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 5
	star, err := collectiveWorkload(p, func(fn func(c Comm) error) error {
		return runTCPGroup(p, fn)
	})
	if err != nil {
		t.Fatal(err)
	}
	compareToReference(t, "tcp star", sequentialReference(p), star)
}

// TestTCPStarRootRejectsMalformedPayloads: a worker whose payload length
// disagrees with the root's, or a Bcast root out of range, fails the
// collective with an error naming the rank and both lengths instead of
// panicking the root.
func TestTCPStarRootRejectsMalformedPayloads(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	cases := []struct {
		name    string
		fn      func(c Comm) error
		rootErr string
	}{
		{"allreduce-sum", func(c Comm) error {
			return c.AllreduceSum(make([]float64, 2+c.Rank()))
		}, "rank 1 sent 3 words for allreduce, want 2"},
		{"allreduce-max", func(c Comm) error {
			return c.AllreduceMax(make([]float64, 3-c.Rank()))
		}, "rank 1 sent 2 words for allreducemax, want 3"},
		{"allgatherv", func(c Comm) error {
			// Rank 1 believes its segment holds 3 words; the root expects 2.
			counts := []int{1, 2 + c.Rank()}
			return c.Allgatherv(make([]float64, counts[c.Rank()]), counts, make([]float64, counts[0]+counts[1]))
		}, "rank 1 sent 3 words for allgatherv, want 2"},
		{"bcast-root", func(c Comm) error {
			return c.Bcast(make([]float64, 2), 5)
		}, "bcast root 5 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runTCPGroup(2, tc.fn)
			if err == nil || !strings.Contains(err.Error(), tc.rootErr) {
				t.Fatalf("got %v, want an error containing %q", err, tc.rootErr)
			}
		})
	}
}

// overlapStress interleaves non-blocking collectives with p2p ring traffic
// and a blocking barrier while both requests are still in flight — the
// tag-matching layer under -race pressure.
func overlapStress(p, rounds, n int) func(c Comm) error {
	return func(c Comm) error {
		rank := c.Rank()
		msgr, okM := c.(Messenger)
		if !okM {
			return fmt.Errorf("rank %d: transport lacks Messenger", rank)
		}
		counts := make([]int, p)
		total := 0
		for r := range counts {
			counts[r] = n/2 + r
			total += counts[r]
		}
		for round := 0; round < rounds; round++ {
			sum := make([]float64, n)
			for i := range sum {
				sum[i] = float64(rank + i + round)
			}
			seg := make([]float64, counts[rank])
			for i := range seg {
				seg[i] = float64(100*rank + i)
			}
			out := make([]float64, total)
			r1 := c.IAllreduceSum(sum)
			r2 := c.IAllgatherv(seg, counts, out)

			// p2p traffic racing the in-flight collectives.
			payload := []float64{float64(rank), float64(round)}
			if err := msgr.Send((rank+1)%p, payload); err != nil {
				return err
			}
			got, err := msgr.Recv((rank + p - 1) % p)
			if err != nil {
				return err
			}
			prev := (rank + p - 1) % p
			if len(got) != 2 || got[0] != float64(prev) || got[1] != float64(round) {
				return fmt.Errorf("rank %d round %d: p2p got %v", rank, round, got)
			}
			ReleaseBuffer(got)

			// A blocking collective while both requests are in flight.
			if err := c.Barrier(); err != nil {
				return err
			}

			if err := r1.Wait(); err != nil {
				return err
			}
			if err := r2.Wait(); err != nil {
				return err
			}
			for i := range sum {
				want := float64(p*(i+round)) + float64(p*(p-1))/2
				if sum[i] != want {
					return fmt.Errorf("rank %d round %d: sum[%d]=%v want %v", rank, round, i, sum[i], want)
				}
			}
			at := 0
			for r := 0; r < p; r++ {
				for i := 0; i < counts[r]; i++ {
					if out[at] != float64(100*r+i) {
						return fmt.Errorf("rank %d round %d: gather[%d]=%v", rank, round, at, out[at])
					}
					at++
				}
			}
		}
		return nil
	}
}

func TestNonBlockingOverlapStressLocal(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	for _, p := range []int{2, 5, 8} {
		if err := RunLocal(p, nil, overlapStress(p, 25, 64)); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestNonBlockingOverlapStressMesh(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 4
	if err := runTCPGroup(p, overlapStress(p, 10, 64), WithMesh()); err != nil {
		t.Fatal(err)
	}
}

// TestMeshMessengerOrdering: multiple sends to the same destination are
// received in order over the mesh.
func TestMeshMessengerOrdering(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 3
	err := runTCPGroup(p, func(c Comm) error {
		msgr := c.(Messenger)
		rank := c.Rank()
		for k := 0; k < 20; k++ {
			if err := msgr.Send((rank+1)%p, []float64{float64(k), float64(rank)}); err != nil {
				return err
			}
		}
		prev := (rank + p - 1) % p
		for k := 0; k < 20; k++ {
			got, err := msgr.Recv(prev)
			if err != nil {
				return err
			}
			if got[0] != float64(k) || got[1] != float64(prev) {
				return fmt.Errorf("rank %d: msg %d got %v", rank, k, got)
			}
			ReleaseBuffer(got)
		}
		return c.Barrier()
	}, WithMesh())
	if err != nil {
		t.Fatal(err)
	}
}

// TestMeshCloseUnblocksPeers: tearing a rank down poisons its peers'
// mailboxes so in-flight collectives error out instead of hanging.
func TestMeshCloseUnblocksPeers(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	p := 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialTCP(addr, r, p, WithMesh())
			if err != nil {
				errs[r] = err
				return
			}
			if r == 2 {
				// Deserter: leaves without participating.
				errs[r] = c.(io.Closer).Close()
				return
			}
			errs[r] = c.Barrier()
		}(r)
	}
	root, err := NewTCPRoot(ln, p, WithMesh())
	if err != nil {
		t.Fatal(err)
	}
	rootErr := root.Barrier()
	wg.Wait()
	root.(io.Closer).Close()
	if errs[2] != nil {
		t.Fatalf("close failed: %v", errs[2])
	}
	if rootErr == nil && errs[1] == nil {
		t.Fatal("no rank observed the dead peer")
	}
}
