// Package fabric is the sharded serving tier: a stateless front-end
// router in front of a pool of back-end engine workers, joined by a
// membership/registration protocol over TCP.
//
// The paper evaluates polarization energy on a *cluster* of multicores;
// internal/cluster brings that cluster inside one evaluation, and
// internal/serve makes one node resident. This package joins the two at
// the serving layer: requests are routed by molecule content hash
// (molecule.Hash) on a consistent-hash ring with virtual nodes, so each
// worker owns a shard of the prepared-problem LRU cache and the stream
// session store. Hot keys replicate to R shards, cache-aware load
// balancing routes to whoever is warm and spills to whoever is idle, and
// failover builds on the cluster layer's typed ErrRankFailed +
// FailureDetector machinery: a worker silent past the heartbeat timeout
// is removed from the ring, its range reassigned, and in-flight requests
// retried on the replica.
//
// Components:
//
//   - Ring: the consistent-hash ring (this file).
//   - Message/EncodeMessage/DecodeMessage: the registration wire protocol
//     (wire.go), framed with CRC32C and bounded lengths like the cluster
//     transport's frames.
//   - Membership: the router-side registry — accepts registrations,
//     monitors heartbeats, maintains the ring (membership.go).
//   - Worker: the worker-side agent — registers a serve.Server with the
//     router and streams load reports (worker.go).
//   - Router: the stateless HTTP front end — routing, replication,
//     failover (router.go), cache-aware balancing (balance.go).
//
// See DESIGN.md §14 for the architecture and the failover state machine.
package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the default virtual-node count per worker. 128 vnodes
// keep the 8-worker balance inside ±15% of fair share (pinned by
// TestRingBalance) at ~1 KiB of ring state per worker.
const DefaultVNodes = 128

// Ring is a consistent-hash ring with virtual nodes. Keys and members
// hash into the same 64-bit space; a key is owned by the first member
// vnode clockwise from the key's hash. Membership changes move only the
// ranges adjacent to the joining or leaving member's vnodes — at most
// ~K/N of the keyspace on a single join or leave (pinned by
// TestRingKeyMovement) — which is exactly the property that keeps the
// per-shard prepared caches warm across worker churn.
//
// All methods are safe for concurrent use; lookups take a read lock only.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	hashes  []uint64 // sorted vnode positions
	owners  []string // owners[i] is the member at hashes[i]
	members map[string]struct{}
}

// NewRing returns an empty ring with the given virtual-node count per
// member (DefaultVNodes when v <= 0).
func NewRing(v int) *Ring {
	if v <= 0 {
		v = DefaultVNodes
	}
	return &Ring{vnodes: v, members: make(map[string]struct{})}
}

// vnodeHash positions one virtual node: SHA-256 of "id#i", first 8 bytes.
// SHA-256 (rather than a fast non-cryptographic hash) keeps vnode
// positions uniform regardless of how adversarially similar worker IDs
// are, and matches the keyspace: routing keys are molecule.Hash prefixes,
// which are SHA-256 digests already.
func vnodeHash(id string, i int) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i))
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{'#'})
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return binary.BigEndian.Uint64(sum[:8])
}

// KeyHash maps a molecule content hash onto the ring's keyspace.
func KeyHash(sum [sha256.Size]byte) uint64 {
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; ok {
		return
	}
	r.members[id] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		h := vnodeHash(id, i)
		at := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= h })
		r.hashes = append(r.hashes, 0)
		copy(r.hashes[at+1:], r.hashes[at:])
		r.hashes[at] = h
		r.owners = append(r.owners, "")
		copy(r.owners[at+1:], r.owners[at:])
		r.owners[at] = id
	}
}

// Remove deletes a member and its vnodes. Removing an unknown member is a
// no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return
	}
	delete(r.members, id)
	keep := 0
	for i := range r.hashes {
		if r.owners[i] != id {
			r.hashes[keep] = r.hashes[i]
			r.owners[keep] = r.owners[i]
			keep++
		}
	}
	r.hashes = r.hashes[:keep]
	r.owners = r.owners[:keep]
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the member IDs in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Owner returns the member owning the key, or "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// Owners returns up to n distinct members in ring order starting at the
// key's owner — the primary shard followed by its replicas. Fewer than n
// members yields all of them; an empty ring yields nil.
func (r *Ring) Owners(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	at := sort.Search(len(r.hashes), func(j int) bool { return r.hashes[j] >= key })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		id := r.owners[(at+i)%len(r.hashes)]
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// String summarizes the ring for logs.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("ring(members=%d vnodes=%d)", len(r.members), r.vnodes)
}
