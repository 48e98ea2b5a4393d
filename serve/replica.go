package serve

// The replication half of the cluster tier: write-through pushes to
// co-replicas, read-repair on by-address GETs, the /v1/cluster/*
// surfaces (key-list exchange, membership gossip, join/leave
// handshake, replica-copy PUT), and the adapters that plug the
// anti-entropy sweeper into the store and the peer HTTP client.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"avtmor"
	"avtmor/internal/cluster"
	"avtmor/internal/replica"
	"avtmor/internal/store"
)

// peerOpTimeout bounds one background peer operation (replica push,
// membership refresh, handshake broadcast): long enough for a ROM
// upload on a congested link, short enough that a dead peer never
// pins a goroutine past the next sweep.
const peerOpTimeout = 10 * time.Second

// maxPullBytes bounds an artifact fetched from a peer during
// read-repair or anti-entropy — same ceiling as request bodies.
const maxPullBytes = 64 << 20

// afterWrite runs the replication side of a freshly computed artifact.
// On a replica, the write is already durable locally (synchronous
// primary write); the remaining copies are pushed to the co-replicas
// asynchronously — best-effort, because the anti-entropy sweep
// backstops any push that fails. On a non-replica (owner-down
// fallback), the local copy is tagged as an orphan so the sweep hands
// it to the real owners and reclaims the space, instead of leaving
// dead weight that never serves a request. ctx contributes only its
// values (the request ID, so the originating request is greppable on
// the co-replica's access log); the pushes outlive the request.
func (s *Server) afterWrite(ctx context.Context, digest string, rom *avtmor.ROM) {
	cs := s.cluster
	if cs == nil {
		return
	}
	owners := cs.ownersFor(digest)
	if !slices.Contains(owners, cs.self) {
		if s.st != nil && s.st.MarkOrphan(digest) == nil {
			cs.orphansMarked.Add(1)
		}
		return
	}
	ctx = context.WithoutCancel(ctx)
	for _, o := range owners {
		if o == cs.self {
			continue
		}
		s.repWG.Add(1)
		go s.pushReplica(ctx, o, digest, rom)
	}
}

// pushReplica uploads one artifact copy to a co-replica. It runs
// detached from any request: the client's response never waits on
// follower writes.
func (s *Server) pushReplica(ctx context.Context, owner, digest string, rom *avtmor.ROM) {
	defer s.repWG.Done()
	cs := s.cluster
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		cs.replicaPushErrors.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(ctx, peerOpTimeout)
	defer cancel()
	start := time.Now()
	if err := s.putReplica(ctx, owner, digest, buf.Bytes()); err != nil {
		cs.replicaPushErrors.Add(1)
		return
	}
	if s.pushLatency != nil {
		s.pushLatency.Observe(time.Since(start).Seconds())
	}
	cs.replicaPushes.Add(1)
}

// putReplica PUTs raw artifact bytes to a peer's replica endpoint.
func (s *Server) putReplica(ctx context.Context, peer, digest string, raw []byte) error {
	resp, err := s.peerDo(ctx, http.MethodPut, peer, "/v1/cluster/roms/"+digest, raw,
		http.Header{"Content-Type": {"application/octet-stream"}}, http.StatusNoContent)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// readRepair restores this node's missing copy of an artifact it owns
// by pulling from a co-replica, synchronously (the requester is
// waiting, and after the pull the GET is a local hit). A GET that a
// co-replica sent is that replica's own pull and is never repaired:
// two owners that both lack the artifact would otherwise pull from
// each other until the caller gives up. Reports whether a copy was
// restored.
func (s *Server) readRepair(r *http.Request, digest string) bool {
	cs := s.cluster
	owners := cs.ownersFor(digest)
	from := cluster.Normalize(r.Header.Get(HeaderForwarded))
	if !slices.Contains(owners, cs.self) || slices.Contains(owners, from) {
		return false
	}
	for _, o := range owners {
		if o == cs.self {
			continue
		}
		if err := (peerOps{s}).Pull(r.Context(), o, digest); err == nil {
			cs.readRepairs.Add(1)
			return true
		}
	}
	return false
}

// handleClusterKeys is GET /v1/cluster/keys?shard=<node>: the sorted
// content addresses stored here that the given ring node owns under
// the current membership. This is the anti-entropy exchange surface —
// content addressing turns "what is peer X missing" into a set
// difference over two of these lists.
func (s *Server) handleClusterKeys(w http.ResponseWriter, r *http.Request) {
	shard := cluster.Normalize(r.URL.Query().Get("shard"))
	if shard == "" {
		s.httpError(w, http.StatusBadRequest, "missing shard parameter")
		return
	}
	cs := s.cluster
	ms, ring := cs.state.View()
	rf := min(ms.Replicas, ring.Len())
	var keys []string
	for _, d := range s.localKeys() {
		if slices.Contains(ring.Owners(d, rf), shard) {
			keys = append(keys, d)
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	replica.WriteKeyList(w, keys)
}

// localKeys enumerates every content address stored on this node.
func (s *Server) localKeys() []string {
	if s.st != nil {
		return s.st.Keys()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.memOrder)
}

// putRaw validates and keeps an artifact copy received from a peer:
// in the store (clearing any orphan tag — a copy placement sends here
// belongs here), or in the by-address map without one.
func (s *Server) putRaw(digest string, raw []byte) error {
	if s.st != nil {
		if err := s.st.PutRaw(digest, raw); err != nil {
			return err
		}
		s.st.ClearOrphan(digest)
		return nil
	}
	rom, err := avtmor.ReadROM(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		return err
	}
	s.remember(digest, rom)
	return nil
}

// handlePutReplica is PUT /v1/cluster/roms/{key}: accept one replica
// copy pushed by a peer (write-through follower write, or anti-entropy
// orphan handoff). The bytes are validated as a ROM before they are
// indexed, and an accepted copy clears any orphan tag — receiving a
// replica write means placement says the artifact belongs here.
func (s *Server) handlePutReplica(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("key")
	if !store.ValidDigest(digest) {
		s.httpError(w, http.StatusBadRequest, "invalid content address %q", digest)
		return
	}
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := s.putRaw(digest, raw); err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, "replica bytes rejected: %v", err)
		return
	}
	s.cluster.replicaWrites.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleGetMembership is GET /v1/cluster/membership: the node's
// current epoch-versioned view.
func (s *Server) handleGetMembership(w http.ResponseWriter, r *http.Request) {
	ms, _ := s.cluster.state.View()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	replica.EncodeMembership(w, ms)
}

// handlePostMembership is POST /v1/cluster/membership: membership
// gossip. The posted view is adopted if newer (total order), and the
// response is whichever view won — so one round trip converges both
// sides.
func (s *Server) handlePostMembership(w http.ResponseWriter, r *http.Request) {
	m, err := replica.DecodeMembership(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.cluster.state.Apply(m)
	s.handleGetMembership(w, r)
}

// handleJoin is POST /v1/cluster/join: admit a node into the fleet.
// The new membership (epoch bumped, joiner included) is returned to
// the joiner and broadcast to the rest of the fleet asynchronously;
// nodes the broadcast misses converge via epoch headers and sweeps.
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	s.handleTransition(w, r, s.cluster.state.Join)
}

// handleLeave is POST /v1/cluster/leave: announce a node's departure.
// Placement excludes it as soon as the new epoch propagates; artifacts
// it held are re-replicated by the surviving owners' sweeps.
func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	s.handleTransition(w, r, s.cluster.state.Leave)
}

// handleTransition decodes a join/leave body, applies the transition,
// broadcasts the resulting membership, and answers with it.
func (s *Server) handleTransition(w http.ResponseWriter, r *http.Request, apply func(string) replica.Membership) {
	req, err := replica.DecodeJoin(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	before := s.cluster.state.Epoch()
	m := apply(req.Node)
	if m.Epoch != before {
		s.broadcastMembership(r.Context(), m, cluster.Normalize(req.Node))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	replica.EncodeMembership(w, m)
}

// broadcastMembership pushes a freshly minted membership to every
// other fleet member (skipping the transitioning node, which gets it
// in the handshake response). Best-effort: a missed node converges on
// the next epoch-stamped request or sweep. Like afterWrite, it keeps
// only ctx's values, so the pushes outlive the request.
func (s *Server) broadcastMembership(ctx context.Context, m replica.Membership, skip string) {
	var body bytes.Buffer
	replica.EncodeMembership(&body, m)
	ctx = context.WithoutCancel(ctx)
	for _, p := range m.Peers {
		if p == s.cluster.self || p == skip {
			continue
		}
		s.repWG.Add(1)
		go func(peer string) {
			defer s.repWG.Done()
			ctx, cancel := context.WithTimeout(ctx, peerOpTimeout)
			defer cancel()
			resp, err := s.peerDo(ctx, http.MethodPost, peer, "/v1/cluster/membership", body.Bytes(),
				http.Header{"Content-Type": {"application/json"}}, 0)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
		}(p)
	}
}

// Join performs the join handshake against seed: this node asks to be
// admitted, adopts the returned membership, and is from then on part
// of placement fleet-wide. Call it after the listener is up, so peers
// can immediately forward to the new member.
func (s *Server) Join(ctx context.Context, seed string) error {
	cs := s.cluster
	if cs == nil {
		return errors.New("serve: Join on a non-clustered server")
	}
	seed = cluster.Normalize(seed)
	if seed == "" || seed == cs.self {
		return fmt.Errorf("serve: invalid join seed %q", seed)
	}
	m, err := s.transitionVia(ctx, seed, "join")
	if err != nil {
		return err
	}
	if !slices.Contains(m.Peers, cs.self) {
		return fmt.Errorf("serve: seed %s admitted a membership without this node", seed)
	}
	cs.state.Apply(m)
	return nil
}

// Leave announces this node's departure to the first reachable peer
// and adopts the resulting membership locally (so this node stops
// considering itself an owner while it drains). The artifacts it
// stores stay on disk; surviving owners re-replicate via anti-entropy.
func (s *Server) Leave(ctx context.Context) error {
	cs := s.cluster
	if cs == nil {
		return errors.New("serve: Leave on a non-clustered server")
	}
	var lastErr error
	for _, p := range cs.state.Ring().Nodes() {
		if p == cs.self {
			continue
		}
		m, err := s.transitionVia(ctx, p, "leave")
		if err != nil {
			lastErr = err
			continue
		}
		cs.state.Apply(m)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("serve: no peer reachable to announce departure")
	}
	return lastErr
}

// transitionVia POSTs this node's join/leave request to peer and
// decodes the membership it answers with.
func (s *Server) transitionVia(ctx context.Context, peer, op string) (replica.Membership, error) {
	body := fmt.Appendf(nil, `{"node":%q}`, s.cluster.self)
	resp, err := s.peerDo(ctx, http.MethodPost, peer, "/v1/cluster/"+op, body,
		http.Header{"Content-Type": {"application/json"}}, http.StatusOK)
	if err != nil {
		return replica.Membership{}, err
	}
	defer resp.Body.Close()
	return replica.DecodeMembership(io.LimitReader(resp.Body, 1<<20))
}

// peerOps adapts the Server's peer HTTP client to replica.PeerOps for
// the sweeper (and read-repair).
type peerOps struct{ s *Server }

func (p peerOps) Keys(ctx context.Context, peer, shard string) ([]string, uint64, error) {
	resp, err := p.s.peerDo(ctx, http.MethodGet, peer, "/v1/cluster/keys?shard="+shard, nil, nil, http.StatusOK)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	epoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	keys, err := replica.ReadKeyList(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return keys, epoch, nil
}

// Pull fetches one artifact from peer and stores it locally. Like
// every peer request, the GET carries the forwarded marker, so the
// peer serves its local copy instead of re-routing — a pull must never
// bounce around the ring.
func (p peerOps) Pull(ctx context.Context, peer, digest string) error {
	s := p.s
	resp, err := s.peerDo(ctx, http.MethodGet, peer, "/v1/roms/"+digest, nil, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPullBytes))
	if err != nil {
		return err
	}
	return s.putRaw(digest, raw)
}

func (p peerOps) Push(ctx context.Context, peer, digest string) error {
	s := p.s
	if s.st == nil {
		return errors.New("serve: push without a store")
	}
	raw, err := s.st.RawBytes(digest)
	if err != nil {
		return err
	}
	return s.putReplica(ctx, peer, digest, raw)
}

func (p peerOps) Membership(ctx context.Context, peer string) (replica.Membership, error) {
	resp, err := p.s.peerDo(ctx, http.MethodGet, peer, "/v1/cluster/membership", nil, nil, http.StatusOK)
	if err != nil {
		return replica.Membership{}, err
	}
	defer resp.Body.Close()
	return replica.DecodeMembership(io.LimitReader(resp.Body, 1<<20))
}

// localOps adapts the store to replica.LocalOps.
type localOps struct{ st *store.Store }

func (l localOps) Keys() []string      { return l.st.Keys() }
func (l localOps) Has(d string) bool   { return l.st.Has(d) }
func (l localOps) Orphans() []string   { return l.st.Orphans() }
func (l localOps) Keep(d string)       { l.st.ClearOrphan(d) }
func (l localOps) Drop(d string) error { return l.st.Remove(d) }

// startSweeper wires and starts the anti-entropy sweeper. It requires
// a store (orphan tags and raw puts live there) and a positive
// interval; cfg.AntiEntropyInterval < 0 disables sweeping explicitly.
func (s *Server) startSweeper() {
	cs := s.cluster
	if cs == nil || s.st == nil || s.cfg.AntiEntropyInterval < 0 {
		return
	}
	cs.sweeper = replica.NewSweeper(replica.Config{
		Self:     cs.self,
		State:    cs.state,
		Interval: s.cfg.AntiEntropyInterval,
		Local:    localOps{s.st},
		Peer:     peerOps{s},
		Rejoin: func() {
			if s.draining.Load() {
				return // departing on purpose; do not fight the leave
			}
			ctx, cancel := context.WithTimeout(context.Background(), peerOpTimeout)
			defer cancel()
			for _, p := range cs.state.Ring().Nodes() {
				if p == cs.self {
					continue
				}
				if err := s.Join(ctx, p); err == nil {
					return
				}
			}
		},
	})
	s.repWG.Add(1)
	go func() {
		defer s.repWG.Done()
		cs.sweeper.Run()
	}()
}
