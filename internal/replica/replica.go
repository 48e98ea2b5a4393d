// Package replica is the replication and membership brain of the
// cluster tier: epoch-versioned dynamic membership over the
// consistent-hash ring, and the anti-entropy sweeper that keeps every
// artifact on its R ring owners as nodes join, leave, and crash.
//
// PR 5's ring was a static -peers list with replication factor 1: an
// owner crash orphaned its shard's only stored copies, and changing
// the fleet meant a synchronized redeploy. This package fixes both
// halves. Placement becomes R>1 (cluster.Ring.Owners — the R distinct
// clockwise successors), so a write lands on R nodes and a crash
// leaves R-1 servable copies. Membership becomes a mutable, versioned
// value: a Membership is (epoch, peer list, replication factor), and
// State holds the current one next to the ring built from it. Nodes
// exchange memberships on a join/leave handshake and in the
// anti-entropy sweep; Compare defines a total order so every node
// adopting "the greater membership" converges on the same view with no
// coordinator. Mid-transition divergence is bounded by the serve
// tier's one-hop forwarding guard: two nodes with different epochs
// disagree about placement for at most one hop, because a forwarded
// request is always served where it lands.
//
// Anti-entropy makes convergence traffic-independent: content
// addressing turns "what am I missing" into a set difference over
// sorted digest lists (the /v1/cluster/keys surface), so a cold or
// repaired node pulls exactly the artifacts it should own and a
// non-replica hands off (then drops) fallback copies it computed while
// an owner was down. The economics mirror short-block amortization in
// distributed coding (Fang, arXiv:1010.3150): a small constant write
// cost per artifact buys out the expensive recompute on every failure.
package replica

import (
	"fmt"
	"strings"
	"sync"

	"avtmor/internal/cluster"
)

// MaxPeers bounds the peer list a membership message may carry: far
// above any realistic fleet, low enough that a hostile handshake body
// cannot demand an absurd allocation or an absurd ring rebuild.
const MaxPeers = 1024

// MaxAddrLen bounds one peer address in a membership or join message.
const MaxAddrLen = 256

// Membership is the epoch-versioned cluster view: who is in the fleet
// and how many copies of each artifact it keeps. It is a value —
// compare with Compare, adopt the greater — and its peer list is
// always normalized, deduplicated, and sorted (the canonical form
// cluster.New produces), so equal views are textually equal.
type Membership struct {
	// Epoch counts membership transitions. A join or leave bumps it by
	// one; higher epochs win everywhere.
	Epoch uint64 `json:"epoch"`
	// Peers is the full fleet address list, canonical form.
	Peers []string `json:"peers"`
	// Replicas is the fleet-wide replication factor R: every artifact
	// is placed on the R distinct clockwise ring successors of its
	// content address. Clamped to [1, len(Peers)] at use sites.
	Replicas int `json:"replicas"`
}

// Compare totally orders memberships: by epoch, then peer-list length,
// then the joined peer list. The tie-breakers make concurrent
// transitions that minted the same epoch on different nodes converge —
// every node adopts the same winner, and the loser's sweeper notices
// it lost (its node may be missing from the winning view) and
// re-joins. Returns -1, 0, or +1.
func Compare(a, b Membership) int {
	switch {
	case a.Epoch != b.Epoch:
		if a.Epoch < b.Epoch {
			return -1
		}
		return 1
	case len(a.Peers) != len(b.Peers):
		if len(a.Peers) < len(b.Peers) {
			return -1
		}
		return 1
	default:
		return strings.Compare(strings.Join(a.Peers, ","), strings.Join(b.Peers, ","))
	}
}

// Validate checks the structural bounds a membership read off the wire
// must satisfy before a ring is built from it.
func (m Membership) Validate() error {
	if len(m.Peers) == 0 {
		return fmt.Errorf("replica: membership has no peers")
	}
	if len(m.Peers) > MaxPeers {
		return fmt.Errorf("replica: %d peers exceeds the limit of %d", len(m.Peers), MaxPeers)
	}
	for _, p := range m.Peers {
		if p == "" || len(p) > MaxAddrLen {
			return fmt.Errorf("replica: invalid peer address %q", p)
		}
	}
	if m.Replicas < 1 || m.Replicas > MaxPeers {
		return fmt.Errorf("replica: replication factor %d outside 1..%d", m.Replicas, MaxPeers)
	}
	return nil
}

// State is the mutable membership of one node: the current Membership
// and the ring built from its peer list. It is safe for concurrent
// use; all transitions go through Apply/Join/Leave, which keep the
// ring and the view in lockstep.
type State struct {
	mu   sync.RWMutex
	ms   Membership    // guarded by mu
	ring *cluster.Ring // guarded by mu; always cluster.New(ms.Peers)
}

// NewState builds the epoch-1 state over a static bootstrap peer list.
// The list is canonicalized through the ring build; replicas is
// clamped to at least 1.
func NewState(peers []string, replicas int) *State {
	if replicas < 1 {
		replicas = 1
	}
	ring := cluster.New(peers, 0)
	return &State{
		ms:   Membership{Epoch: 1, Peers: ring.Nodes(), Replicas: replicas},
		ring: ring,
	}
}

// View returns the current membership and its ring. The membership's
// peer slice and the ring are shared snapshots; callers must not
// mutate them (both are rebuilt, never edited, on transition).
func (s *State) View() (Membership, *cluster.Ring) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ms, s.ring
}

// Epoch returns the current membership epoch.
func (s *State) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ms.Epoch
}

// Ring returns the current ring.
func (s *State) Ring() *cluster.Ring {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring
}

// Apply adopts m if it is greater than the current view (Compare
// order) and reports whether a transition happened. An invalid m is
// ignored. The ring is rebuilt from the adopted peer list.
func (s *State) Apply(m Membership) bool {
	if m.Validate() != nil {
		return false
	}
	ring := cluster.New(m.Peers, 0)
	if ring.Len() == 0 {
		return false // every peer normalized away: an empty ring owns nothing
	}
	m.Peers = ring.Nodes() // canonical form, so Compare is textual
	s.mu.Lock()
	defer s.mu.Unlock()
	if Compare(m, s.ms) <= 0 {
		return false
	}
	s.ms = m
	s.ring = ring
	return true
}

// Join adds node to the fleet, bumping the epoch, and returns the new
// membership (the current one unchanged if node is already a member
// or normalizes to nothing). The caller broadcasts the result.
func (s *State) Join(node string) Membership {
	node = cluster.Normalize(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	if node == "" || s.ring.Contains(node) {
		return s.ms
	}
	ring := cluster.New(append([]string{node}, s.ms.Peers...), 0)
	s.ms = Membership{Epoch: s.ms.Epoch + 1, Peers: ring.Nodes(), Replicas: s.ms.Replicas}
	s.ring = ring
	return s.ms
}

// Leave removes node from the fleet, bumping the epoch, and returns
// the new membership (unchanged if node was not a member, and the
// last node never removes itself — an empty ring owns nothing, which
// would strand every key).
func (s *State) Leave(node string) Membership {
	node = cluster.Normalize(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	if node == "" || !s.ring.Contains(node) || s.ring.Len() == 1 {
		return s.ms
	}
	peers := make([]string, 0, len(s.ms.Peers)-1)
	for _, p := range s.ms.Peers {
		if p != node {
			peers = append(peers, p)
		}
	}
	ring := cluster.New(peers, 0)
	s.ms = Membership{Epoch: s.ms.Epoch + 1, Peers: ring.Nodes(), Replicas: s.ms.Replicas}
	s.ring = ring
	return s.ms
}

// Contains reports whether node (normalized) is in the current view.
func (s *State) Contains(node string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Contains(node)
}
