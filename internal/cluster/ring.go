// Package cluster turns independent icfg-serve daemons into a rewrite
// cluster. A consistent-hash ring routes each request by the content
// hash of its input binary, so every request for the same bytes lands
// on the same owning nodes — exactly where the result and analysis
// caches hold its work. (Each version of a binary hashes differently,
// so versions do not follow one another to a node.) Three pieces
// compose:
//
//   - Ring (this file): the hash ring, mapping a content hash to its
//     ordered replica set;
//   - Node: a routing wrapper around one service.Server — serves
//     requests it owns and forwards the rest;
//   - Gateway: the thin stateless front door that load-balances onto
//     the ring with health-checked failover.
//
// Routing is a performance policy, never a correctness one: any node
// can serve any request (the caches just run colder), and the emitted
// bytes are identical wherever a request lands — the cluster tests
// prove this, including with the owning peer killed mid-workload.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the per-peer virtual-node count. 128 points per peer
// keeps the load split close to even for small clusters while the ring
// stays tiny (a few KB).
const DefaultVNodes = 128

// DefaultReplicas is the default replication factor: the owner plus one
// failover replica.
const DefaultReplicas = 2

// Ring is an immutable consistent-hash ring over a fixed peer set.
// Membership health is deliberately not the ring's problem — the ring
// answers "who would own this key", and callers skip unhealthy owners
// (Node, Gateway) so a dead peer's keys fail over to the next replica
// without re-hashing anything.
type Ring struct {
	peers  []string
	points []point // sorted by hash
}

type point struct {
	hash uint64
	peer int // index into peers
}

// NewRing builds a ring over peers with the given virtual-node count
// per peer (<=0 selects DefaultVNodes). Peer order does not matter and
// duplicates are rejected; every member must agree on the peer set for
// routing to agree.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := append([]string(nil), peers...)
	sort.Strings(uniq)
	for i := 1; i < len(uniq); i++ {
		if uniq[i] == uniq[i-1] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", uniq[i])
		}
	}
	r := &Ring{peers: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	for pi, p := range r.peers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: ringHash(fmt.Sprintf("%s#%d", p, v)), peer: pi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on peer index so ring order is deterministic even in
		// the (vanishingly unlikely) event of a 64-bit hash collision.
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// ringHash is the first 8 bytes of SHA-256 — stable across processes
// and Go versions (ring agreement requires that; maphash would differ
// per process) and uniform even over the short, similar strings vnode
// labels are, where weaker string hashes visibly skew the load split.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the ring's full membership, sorted.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Owners returns the n distinct peers responsible for key, in replica
// order: the first is the owner, the rest are failover replicas in the
// order a healthy-owner search should try them. n is clamped to the
// peer count.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	h := ringHash(key)
	// First point clockwise of h (wrapping).
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for off := 0; off < len(r.points) && len(owners) < n; off++ {
		pt := r.points[(i+off)%len(r.points)]
		if !seen[pt.peer] {
			seen[pt.peer] = true
			owners = append(owners, r.peers[pt.peer])
		}
	}
	return owners
}
