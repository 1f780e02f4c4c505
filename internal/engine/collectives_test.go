package engine

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"octgb/internal/cluster"
	"octgb/internal/testutil"
)

// The star collectives and the TCP transports — the mesh and its star
// fallback — must reproduce the in-process engines' energies to 1e-12
// with identical Stats counters.

// TestTopoEnginesMatchStarBaseline runs each distributed engine over the
// in-process log-depth collectives and over the TCP star, the one star
// family left, and requires the same energy, radii and Stats.
func TestTopoEnginesMatchStarBaseline(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(500, 91)
	cases := []struct {
		name string
		k    Kind
		o    Options
	}{
		{"OctMPI/P4", OctMPI, Options{Ranks: 4}},
		{"OctMPI/P3", OctMPI, Options{Ranks: 3}},
		{"OctMPICilk/P3xT2", OctMPICilk, Options{Ranks: 3, Threads: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := RunReal(pr, tc.k, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			rankOpts := tc.o.withDefaults(tc.k)
			reps := make([]RealReport, tc.o.Ranks)
			overTCP(t, tc.o.Ranks, false, func(c cluster.Comm, rank int) error {
				rep, err := RunRank(c, pr, rankOpts)
				reps[rank] = rep
				return err
			})
			star := reps[0]
			for r, rep := range reps {
				if e := relErr(rep.Energy, topo.Energy); e > 1e-12 {
					t.Fatalf("rank %d energy: star %v vs topo %v (rel %v)", r, rep.Energy, topo.Energy, e)
				}
				for i := range topo.BornRadii {
					if e := relErr(rep.BornRadii[i], topo.BornRadii[i]); e > 1e-12 {
						t.Fatalf("rank %d radius %d: star %v vs topo %v", r, i, rep.BornRadii[i], topo.BornRadii[i])
					}
				}
				if r > 0 {
					star.BornStats.Add(rep.BornStats)
					star.EpolStats.Add(rep.EpolStats)
				}
			}
			if star.BornStats != topo.BornStats {
				t.Fatalf("BornStats: star %+v vs topo %+v", star.BornStats, topo.BornStats)
			}
			if star.EpolStats != topo.EpolStats {
				t.Fatalf("EpolStats: star %+v vs topo %+v", star.EpolStats, topo.EpolStats)
			}
		})
	}
}

// TestDistDataTopoMatchesStar runs the distributed-data engine at P=4 over
// the in-process log-depth collectives and over a star built from the same
// ranks' point-to-point messages (the TCP star has no point-to-point
// messaging, which the engine's ghost exchange needs).
func TestDistDataTopoMatchesStar(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(500, 92)
	P := 4
	topo, err := RunDistributedDataEnergy(pr, P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	star := make([]float64, P)
	err = cluster.RunLocal(P, nil, func(c cluster.Comm) error {
		sc := starComm{Comm: c, Messenger: c.(cluster.Messenger)}
		e, err := RunDistributedDataEnergyRank(sc, pr, Options{})
		star[c.Rank()] = e
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, e := range star {
		if re := relErr(e, topo); re > 1e-12 {
			t.Fatalf("rank %d distdata energy: star %v vs topo %v (rel %v)", r, e, topo, re)
		}
	}
}

// starComm replaces the two collectives the distributed-data engine uses,
// AllreduceSum and Allgatherv, with star forms over point-to-point
// messages: every rank sends to rank 0, which combines in rank order and
// sends the result back. Per-pair message order keeps these rounds apart
// from the engine's own ghost traffic.
type starComm struct {
	cluster.Comm
	cluster.Messenger
}

func (s starComm) AllreduceSum(buf []float64) error {
	return s.star(buf, func(acc []float64, r int, in []float64) error {
		if len(in) != len(acc) {
			return fmt.Errorf("rank %d sent %d words, want %d", r, len(in), len(acc))
		}
		for i, v := range in {
			acc[i] += v
		}
		return nil
	}, buf)
}

func (s starComm) Allgatherv(segment []float64, counts []int, out []float64) error {
	offs := make([]int, len(counts)+1)
	for r, n := range counts {
		offs[r+1] = offs[r] + n
	}
	copy(out[offs[s.Rank()]:offs[s.Rank()+1]], segment)
	return s.star(segment, func(acc []float64, r int, in []float64) error {
		if len(in) != counts[r] {
			return fmt.Errorf("rank %d sent %d words, want %d", r, len(in), counts[r])
		}
		copy(acc[offs[r]:offs[r+1]], in)
		return nil
	}, out)
}

// star sends mine to rank 0; rank 0 starts from its own out, folds in
// every other rank's message in rank order and sends out back to all.
func (s starComm) star(mine []float64, fold func(acc []float64, r int, in []float64) error, out []float64) error {
	if s.Rank() != 0 {
		if err := s.Send(0, mine); err != nil {
			return err
		}
		res, err := s.Recv(0)
		if err != nil {
			return err
		}
		if len(res) != len(out) {
			return fmt.Errorf("root sent %d words, want %d", len(res), len(out))
		}
		copy(out, res)
		return nil
	}
	for r := 1; r < s.Size(); r++ {
		in, err := s.Recv(r)
		if err != nil {
			return err
		}
		if err := fold(out, r, in); err != nil {
			return err
		}
	}
	for r := 1; r < s.Size(); r++ {
		if err := s.Send(r, out); err != nil {
			return err
		}
	}
	return nil
}

// overTCP runs fn on every rank of a loopback TCP group (star or mesh).
func overTCP(t *testing.T, size int, mesh bool, fn func(c cluster.Comm, rank int) error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	var opts []cluster.TCPOption
	if mesh {
		opts = append(opts, cluster.WithMesh())
	}

	errs := make([]error, size)
	comms := make([]cluster.Comm, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := cluster.DialTCP(addr, r, size, opts...)
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			errs[r] = fn(c, r)
		}(r)
	}
	root, err := cluster.NewTCPRoot(ln, size, opts...)
	if err != nil {
		t.Fatal(err)
	}
	comms[0] = root
	errs[0] = fn(root, 0)
	wg.Wait()
	for _, c := range comms {
		if cl, ok := c.(io.Closer); ok {
			cl.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestRunRankOverTCPMatchesLocal(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(400, 93)
	P := 3
	base, err := RunReal(pr, OctMPI, Options{Ranks: P})
	if err != nil {
		t.Fatal(err)
	}
	for _, mesh := range []bool{false, true} {
		t.Run(fmt.Sprintf("mesh=%v", mesh), func(t *testing.T) {
			reps := make([]RealReport, P)
			overTCP(t, P, mesh, func(c cluster.Comm, rank int) error {
				rep, err := RunRank(c, pr, Options{})
				reps[rank] = rep
				return err
			})
			agg := reps[0]
			for _, r := range reps[1:] {
				if e := relErr(r.Energy, base.Energy); e > 1e-12 {
					t.Fatalf("rank energy %v vs baseline %v (rel %v)", r.Energy, base.Energy, e)
				}
				agg.BornStats.Add(r.BornStats)
				agg.EpolStats.Add(r.EpolStats)
			}
			if e := relErr(reps[0].Energy, base.Energy); e > 1e-12 {
				t.Fatalf("root energy %v vs baseline %v (rel %v)", reps[0].Energy, base.Energy, e)
			}
			if agg.BornStats != base.BornStats {
				t.Fatalf("BornStats: tcp %+v vs baseline %+v", agg.BornStats, base.BornStats)
			}
			if agg.EpolStats != base.EpolStats {
				t.Fatalf("EpolStats: tcp %+v vs baseline %+v", agg.EpolStats, base.EpolStats)
			}
		})
	}
}

func TestDistDataOverTCPMesh(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	pr := testProblem(400, 94)
	P := 3
	want, err := RunDistributedDataEnergy(pr, P, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, P)
	overTCP(t, P, true, func(c cluster.Comm, rank int) error {
		e, err := RunDistributedDataEnergyRank(c, pr, Options{})
		got[rank] = e
		return err
	})
	for r, e := range got {
		if re := relErr(e, want); re > 1e-12 {
			t.Fatalf("rank %d: mesh energy %v vs local %v (rel %v)", r, e, want, re)
		}
	}
}
