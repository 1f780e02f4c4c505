package engine

import (
	"octgb/internal/partition"
	"octgb/internal/simtime"
)

// This file analyzes the data-distribution variant the paper lists as
// future work (§VI: "Distributing data as well as computation is also an
// interesting approach to explore"). In the published algorithms every
// rank replicates all data; in the distributed-data variant a rank holds
// only (a) the atoms of its owned leaf segment, (b) the small tree
// skeleton — node centers, radii, counts and per-node charge bins, which
// is all the far field needs — and (c) "ghost" copies of the non-owned
// leaves its near-field interactions touch. The analysis below computes
// the exact ghost sets from the real traversal, giving the true per-rank
// memory and exchange volume of that design.

// DataDistribution summarizes the distributed-data energy phase for one
// rank count.
type DataDistribution struct {
	P int
	// MaxOwnedAtoms is the largest owned atom count over ranks.
	MaxOwnedAtoms int
	// MaxGhostAtoms / AvgGhostAtoms are the per-rank ghost-copy volumes.
	MaxGhostAtoms int
	AvgGhostAtoms float64
	// SkeletonBytes is the per-rank tree-skeleton footprint (nodes + bins).
	SkeletonBytes int64
	// BytesPerRankDistributed is the worst-case per-rank memory of the
	// distributed-data design: owned + ghosts + skeleton (48 B per atom
	// payload: position, radius, charge, Born radius).
	BytesPerRankDistributed int64
	// BytesPerRankReplicated is the published design's per-rank memory.
	BytesPerRankReplicated int64
	// ExchangeWords is the total float64 volume of the ghost exchange
	// (6 words per ghost atom: position, charge, radius, Born radius).
	ExchangeWords int64
	// ExchangeCostSec is the modeled one-time exchange cost.
	ExchangeCostSec float64
}

// DistributeData computes the exact data-distribution profile of the
// energy phase for P ranks on machine m. It requires a leaf-driven model
// (OctMPI or OctMPICilk).
func (sm *SimModel) DistributeData(P int, m simtime.Machine) DataDistribution {
	if P < 1 {
		P = 1
	}
	dd := DataDistribution{P: P, BytesPerRankReplicated: sm.BytesPerRank}
	es := sm.es
	if es == nil {
		return dd
	}
	tree := es.T
	nLeaves := es.NumLeaves()
	segs := partition.Even(nLeaves, P)

	// Owner of each leaf (by leaf index).
	owner := make([]int32, nLeaves)
	for r, seg := range segs {
		for l := seg.Lo; l < seg.Hi; l++ {
			owner[l] = int32(r)
		}
	}
	// Map node index → leaf index for ghost attribution.
	leafOf := make(map[int32]int, nLeaves)
	for li, node := range tree.Leaves() {
		leafOf[node] = li
	}

	const atomBytes = 48
	const atomWords = 6
	dd.SkeletonBytes = int64(len(tree.Nodes))*64 + int64(len(tree.Nodes)*es.NumBins())*8

	var totalGhost int64
	for r, seg := range segs {
		owned := 0
		ghostLeaves := map[int32]bool{}
		for l := seg.Lo; l < seg.Hi; l++ {
			node := tree.Leaves()[l]
			owned += int(tree.Nodes[node].Count)
			for _, need := range es.NeededLeaves(l) {
				if owner[leafOf[need]] != int32(r) {
					ghostLeaves[need] = true
				}
			}
		}
		ghost := 0
		for node := range ghostLeaves {
			ghost += int(tree.Nodes[node].Count)
		}
		if owned > dd.MaxOwnedAtoms {
			dd.MaxOwnedAtoms = owned
		}
		if ghost > dd.MaxGhostAtoms {
			dd.MaxGhostAtoms = ghost
		}
		totalGhost += int64(ghost)

		bytes := int64(owned+ghost)*atomBytes + dd.SkeletonBytes
		if bytes > dd.BytesPerRankDistributed {
			dd.BytesPerRankDistributed = bytes
		}
	}
	dd.AvgGhostAtoms = float64(totalGhost) / float64(P)
	dd.ExchangeWords = totalGhost * atomWords
	// Exchange modeled as a personalized all-to-all of the ghost volume.
	rpn := ranksPerNode(P, 1, m)
	dd.ExchangeCostSec = m.CollectiveCost("allgatherv", int(dd.ExchangeWords/int64(max(P, 1))), P, rpn)
	return dd
}
