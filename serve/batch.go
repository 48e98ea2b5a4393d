package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"avtmor"
	"avtmor/internal/query"
	"avtmor/internal/store"
	"avtmor/internal/wire"
)

// handleReduceBatch is POST /v1/reduce/batch: many netlist/System
// bodies in one length-prefixed request (internal/wire framing), one
// multi-ROM response with per-item status. One POST amortizes routing,
// framing, and queueing across N reductions — the wire-level analogue
// of the solver's block multi-RHS path. Reduction options apply
// batch-wide via the usual query parameters.
//
// Admission is cost-weighted and per item: every item that needs
// compute is admitted against the cost budget individually and reduced
// on its own goroutine, so a saturated budget sheds per item (429 in
// that item's status) instead of rejecting or buffering the whole
// batch; cache hits are answered inline and consume nothing. The HTTP
// status is 200 whenever the batch itself parsed; per-item outcomes
// live in the response frame, in request order.
//
// On a clustered server the batch is split by ring owner: items owned
// here (or already cached here) are computed locally, the rest are
// regrouped into per-owner sub-batches and forwarded in one hop
// (guarded by X-Avtmor-Forwarded, like single requests). A peer that
// is unreachable or draining degrades to computing its group locally.
func (s *Server) handleReduceBatch(w http.ResponseWriter, r *http.Request) {
	s.batchReqs.Add(1)
	req, err := query.Parse(r.URL.Query())
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	items, err := wire.ReadBatchRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), s.cfg.MaxBodyBytes)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "reading batch: %v", err)
		return
	}
	// A batch draws one quota token per item: N reduces in one frame
	// and N single POSTs cost a client the same.
	if !s.checkQuota(w, r, float64(len(items))) {
		return
	}
	s.batchItems.Add(int64(len(items)))
	s.batchWidth.Observe(float64(len(items)))
	ctx := r.Context()
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}

	results := make([]wire.Result, len(items))
	states := make([]*batchItem, len(items))
	var local []int
	var totalCost int64
	groups := map[string][]int{}

	// One forwarded-hop check for the whole batch: a sub-batch from a
	// peer is always answered locally, never re-split (loop guard).
	forwarded := false
	if cs := s.cluster; cs != nil && r.Header.Get(HeaderForwarded) != "" {
		cs.forwardedServes.Add(1)
		forwarded = true
	}

	for i, body := range items {
		sys, err := query.System(body)
		if err != nil {
			s.countError(http.StatusBadRequest)
			results[i] = wire.Result{Status: http.StatusBadRequest, Body: []byte(fmt.Sprintf("parsing system: %v", err))}
			continue
		}
		key := req.Key(sys)
		it := &batchItem{sys: sys, key: key, digest: store.Digest(key), cost: estimateCost(sys, req)}
		states[i] = it
		totalCost += it.cost
		owner := ""
		if cs := s.cluster; cs != nil && !forwarded {
			// Batch items forward to the primary replica only: the
			// owner-down degradation below already covers a dead primary
			// by computing the group locally, and keeping each sub-batch
			// on one peer preserves the amortization the batch exists for.
			if owners := cs.ownersFor(it.digest); len(owners) > 0 && !slices.Contains(owners, cs.self) {
				owner = owners[0]
			} else {
				cs.ownerHits.Add(1)
			}
		}
		if owner == "" {
			// Cache hits bypass admission: it is cost-weighted, and a hit
			// costs no compute — spending an admission unit (and a
			// goroutine) on it would let a sweep of warm keys shed work
			// that is actually free.
			if cached, err := s.reducer.Lookup(it.key); err == nil && cached != nil {
				s.remember(it.digest, cached)
				results[i] = romResult(it.digest, cached)
				continue
			}
			local = append(local, i)
			continue
		}
		// Peer-owned, but maybe already here (pre-cluster history, an
		// earlier fallback): content addressing makes every copy
		// identical, so answer from the local tiers and skip the hop.
		if cached, err := s.reducer.Lookup(it.key); err == nil && cached != nil {
			s.cluster.localHits.Add(1)
			s.remember(it.digest, cached)
			results[i] = romResult(it.digest, cached)
			continue
		}
		groups[owner] = append(groups[owner], i)
	}

	// The envelope estimate covers every parsed item, local or
	// forwarded — what this batch asks of the fleet as a whole.
	setCost(w, totalCost)

	var wg sync.WaitGroup
	for _, i := range local {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.batchItemLocal(ctx, states[i], req)
		}(i)
	}
	for owner, idxs := range groups {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			bodies := make([][]byte, len(idxs))
			for j, i := range idxs {
				bodies[j] = items[i]
			}
			if res, err := s.relayBatch(ctx, owner, r.URL.RawQuery, bodies); err == nil {
				for j, i := range idxs {
					results[i] = res[j]
				}
				return
			}
			// Owner unreachable or draining: compute the group here,
			// like the single-request fallback.
			s.cluster.fallbackLocal.Add(1)
			var gwg sync.WaitGroup
			for _, i := range idxs {
				gwg.Add(1)
				go func(i int) {
					defer gwg.Done()
					results[i] = s.batchItemLocal(ctx, states[i], req)
				}(i)
			}
			gwg.Wait()
		}(owner, idxs)
	}
	wg.Wait()

	// Buffer the frame for an exact Content-Length; per-item bodies are
	// already in memory, so this costs one copy, not a serialization.
	var buf bytes.Buffer
	if err := wire.WriteBatchResponse(&buf, results); err != nil {
		s.httpError(w, http.StatusInternalServerError, "framing batch response: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", wire.BatchContentType)
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// batchItem is one parsed batch entry.
type batchItem struct {
	sys    *avtmor.System
	key    string
	digest string
	cost   int64
}

// batchItemLocal reduces one item through reduceLocal, mapping
// failures through the same status taxonomy as single requests. Each
// item is admitted against the cost budget individually, so a batch of
// heavy items self-paces instead of reserving the fleet in one gulp.
func (s *Server) batchItemLocal(ctx context.Context, it *batchItem, req *query.Request) wire.Result {
	rom, err := s.reduceLocal(ctx, it.sys, req, it.digest, it.cost)
	if err != nil {
		code, msg := s.errStatus("reduction", err, it.cost)
		s.countError(code)
		return wire.Result{Status: code, Key: it.digest, Body: []byte(msg)}
	}
	return romResult(it.digest, rom)
}

// romResult serializes a ROM into a per-item success result.
func romResult(digest string, rom *avtmor.ROM) wire.Result {
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		return wire.Result{Status: http.StatusInternalServerError, Key: digest, Body: []byte(fmt.Sprintf("serializing ROM: %v", err))}
	}
	return wire.Result{Status: http.StatusOK, Key: digest, Body: buf.Bytes()}
}

// relayBatch forwards one owner's sub-batch and returns its per-item
// results (exactly one per body, in order). Any transport failure,
// non-200 answer, or malformed frame is returned as an error so the
// caller degrades to local compute for the group.
func (s *Server) relayBatch(ctx context.Context, owner, rawQuery string, bodies [][]byte) ([]wire.Result, error) {
	pv := s.cluster.peerVar(owner)
	pv.forwards.Add(1)
	var frame bytes.Buffer
	if err := wire.WriteBatchRequest(&frame, bodies); err != nil {
		pv.forwardErrors.Add(1)
		return nil, err
	}
	path := "/v1/reduce/batch"
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	resp, err := s.peerDo(ctx, http.MethodPost, owner, path, frame.Bytes(),
		http.Header{"Content-Type": {wire.BatchContentType}}, http.StatusOK)
	if err != nil {
		pv.forwardErrors.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	res, err := wire.ReadBatchResponse(resp.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		pv.forwardErrors.Add(1)
		return nil, err
	}
	if len(res) != len(bodies) {
		pv.forwardErrors.Add(1)
		return nil, fmt.Errorf("peer %s answered %d results for %d items", owner, len(res), len(bodies))
	}
	return res, nil
}
