// Command benchcomm measures the cluster layer's collectives: the
// topology-aware algorithms (recursive-doubling allreduce, ring
// allgatherv, binomial bcast — cluster/collectives.go) in process and over
// the TCP mesh, against the TCP root star the mesh falls back to.
//
// Two sections are reported, following the repository's modeling doctrine
// (simtime: real algorithms, modeled clock):
//
//   - measured: wall-clock per operation on THIS machine — in-process
//     ranks and TCP loopback. On a small host these numbers are dominated
//     by scheduling and memcpy, not by the network the algorithms are
//     designed for; they verify the implementations and ground the model.
//   - modeled: the α–β cost (simtime.AlgoCollectiveCost, Lonestar4
//     machine) of each algorithm at cluster scale, where the log-depth
//     structure pays: allreduce/allgatherv throughput vs. the star at
//     P ≥ 8.
//
// Results are printed and written as JSON (default BENCH_comm.json, the
// file committed at the repository root).
//
// Usage:
//
//	benchcomm                    # writes BENCH_comm.json
//	benchcomm -o out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"octgb/internal/cluster"
	"octgb/internal/simtime"
)

type measured struct {
	Op        string  `json:"op"`
	Transport string  `json:"transport"` // local-topo, tcp-star, tcp-mesh
	P         int     `json:"p"`
	Words     int     `json:"words"`
	NsPerOp   float64 `json:"ns_per_op"`
}

type modeled struct {
	Op            string  `json:"op"`
	P             int     `json:"p"`
	Words         int     `json:"words"`
	StarSec       float64 `json:"star_sec"`
	TopoSec       float64 `json:"topo_sec"`
	SpeedupVsStar float64 `json:"speedup_vs_star"`
}

type report struct {
	GoVersion      string             `json:"go_version"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	Machine        string             `json:"modeled_machine"`
	Measured       []measured         `json:"measured"`
	ModeledCluster []modeled          `json:"modeled_cluster"`
	Derived        map[string]float64 `json:"derived"`
}

// runOp executes one collective once on a communicator.
func runOp(c cluster.Comm, op string, buf, seg, out []float64, counts []int) error {
	switch op {
	case "allreduce":
		return c.AllreduceSum(buf)
	case "allgatherv":
		return c.Allgatherv(seg, counts, out)
	case "bcast":
		return c.Bcast(buf, 0)
	default:
		return c.Barrier()
	}
}

// opArgs builds per-rank buffers for one (op, p, words) point; words is the
// total payload (allgatherv segments sum to it).
func opArgs(op string, rank, p, words int) (buf, seg, out []float64, counts []int) {
	buf = make([]float64, words)
	for i := range buf {
		buf[i] = float64(rank + i)
	}
	counts = make([]int, p)
	for r := range counts {
		counts[r] = words / p
	}
	counts[p-1] += words % p
	off := 0
	for r := 0; r < rank; r++ {
		off += counts[r]
	}
	seg = buf[off : off+counts[rank]]
	out = make([]float64, words)
	return
}

// measureLocal times one op on the in-process transport.
func measureLocal(op string, p, words, iters int) (float64, error) {
	var elapsed time.Duration
	err := cluster.RunLocal(p, nil, func(c cluster.Comm) error {
		buf, seg, out, counts := opArgs(op, c.Rank(), p, words)
		if err := runOp(c, op, buf, seg, out, counts); err != nil { // warm-up
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := runOp(c, op, buf, seg, out, counts); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	})
	return float64(elapsed.Nanoseconds()) / float64(iters), err
}

// measureTCP times one op over TCP loopback (star or mesh), all ranks in
// this process.
func measureTCP(mesh bool, op string, p, words, iters int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	addr := ln.Addr().String()
	var opts []cluster.TCPOption
	if mesh {
		opts = append(opts, cluster.WithMesh())
	}
	body := func(c cluster.Comm) (time.Duration, error) {
		buf, seg, out, counts := opArgs(op, c.Rank(), p, words)
		if err := runOp(c, op, buf, seg, out, counts); err != nil {
			return 0, err
		}
		if err := c.Barrier(); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := runOp(c, op, buf, seg, out, counts); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	errs := make([]error, p)
	comms := make([]cluster.Comm, p)
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := cluster.DialTCP(addr, r, p, opts...)
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = c
			_, errs[r] = body(c)
		}(r)
	}
	root, err := cluster.NewTCPRoot(ln, p, opts...)
	if err != nil {
		return 0, err
	}
	comms[0] = root
	elapsed, err := body(root)
	errs[0] = err
	wg.Wait()
	for _, c := range comms {
		if cl, ok := c.(interface{ Close() error }); ok {
			cl.Close()
		}
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), nil
}

func main() {
	outPath := flag.String("o", "BENCH_comm.json", "output JSON path")
	flag.Parse()

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Derived:    map[string]float64{},
	}
	mach := simtime.Lonestar4()
	rep.Machine = mach.Name

	// ---- measured: in-process transport ---------------------------------
	fmt.Println("measured (this machine):")
	for _, op := range []string{"allreduce", "allgatherv", "bcast"} {
		for _, p := range []int{2, 4, 8} {
			for _, words := range []int{128, 8192, 131072} {
				iters := 64
				if words >= 131072 {
					iters = 8
				}
				ns, err := measureLocal(op, p, words, iters)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchcomm:", err)
					os.Exit(1)
				}
				rep.Measured = append(rep.Measured, measured{op, "local-topo", p, words, ns})
				fmt.Printf("  %-10s %-10s P=%d words=%-7d %12.0f ns/op\n", op, "local-topo", p, words, ns)
			}
		}
	}
	// TCP loopback: one grounding point per op and wiring.
	for _, op := range []string{"allreduce", "allgatherv"} {
		for _, tr := range []struct {
			name string
			mesh bool
		}{{"tcp-star", false}, {"tcp-mesh", true}} {
			ns, err := measureTCP(tr.mesh, op, 4, 8192, 16)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchcomm:", err)
				os.Exit(1)
			}
			rep.Measured = append(rep.Measured, measured{op, tr.name, 4, 8192, ns})
			fmt.Printf("  %-10s %-10s P=%d words=%-7d %12.0f ns/op\n", op, tr.name, 4, 8192, ns)
		}
	}

	// ---- modeled: cluster-scale collective costs ------------------------
	fmt.Println("\nmodeled cluster collectives (Lonestar4 α–β):")
	for _, op := range []string{"allreduce", "allgatherv", "bcast", "barrier"} {
		for _, p := range []int{4, 8, 16, 64} {
			for _, words := range []int{8192, 131072} {
				star := mach.AlgoCollectiveCost(op, false, words, p, 2)
				topo := mach.AlgoCollectiveCost(op, true, words, p, 2)
				sp := star / topo
				rep.ModeledCluster = append(rep.ModeledCluster, modeled{op, p, words, star, topo, sp})
				if p >= 8 {
					fmt.Printf("  %-10s P=%-3d words=%-7d star %.3gs topo %.3gs (%.1fx)\n", op, p, words, star, topo, sp)
				}
			}
		}
	}
	key := func(op string, p, words int) float64 {
		for _, m := range rep.ModeledCluster {
			if m.Op == op && m.P == p && m.Words == words {
				return m.SpeedupVsStar
			}
		}
		return 0
	}
	rep.Derived["allreduce_p8_64kib_speedup"] = key("allreduce", 8, 8192)
	rep.Derived["allgatherv_p8_64kib_speedup"] = key("allgatherv", 8, 8192)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcomm:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcomm:", err)
		os.Exit(1)
	}
	fmt.Printf("\nallreduce  P=8 64KiB modeled speedup: %.1fx\n", rep.Derived["allreduce_p8_64kib_speedup"])
	fmt.Printf("allgatherv P=8 64KiB modeled speedup: %.1fx\n", rep.Derived["allgatherv_p8_64kib_speedup"])
	fmt.Printf("wrote %s\n", *outPath)
}
