package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"time"

	"avtmor"
	"avtmor/internal/query"
	"avtmor/internal/store"
)

// handleReduce accepts a netlist (text) or a serialized System
// (binary, sniffed by magic) body, reduces it once admitted, and
// streams the ROM artifact back. The response carries the artifact's
// content address in X-Avtmor-Rom-Key for later GET/simulate calls.
//
// Query parameters are documented on query.Parse (k1/k2/k3, auto, s0,
// xp, droptol, parallel, method, timeout).
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	s.reduceReqs.Add(1)
	start := time.Now()
	if !s.checkQuota(w, r, 1) {
		return
	}
	req, err := query.Parse(r.URL.Query())
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sys, err := query.System(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "parsing system: %v", err)
		return
	}
	cost := estimateCost(sys, req)
	setCost(w, cost)
	ctx := r.Context()
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	key := req.Key(sys)
	digest := store.Digest(key)
	// A peer-owned key is forwarded with the original body bytes,
	// unless the artifact is already in this node's local tiers.
	var rom *avtmor.ROM
	if s.forward(w, r, digest, body, func() bool {
		rom, _ = s.reducer.Lookup(key)
		return rom != nil
	}) {
		return
	}
	// Cache and store hits cost no compute: answer them without
	// touching the admission budget, so a warm key is never queued
	// behind an expensive burst.
	if rom == nil {
		rom, _ = s.reducer.Lookup(key)
	}
	if rom != nil {
		s.remember(digest, rom)
	} else if rom, err = s.reduceLocal(ctx, sys, req, digest, cost); err != nil {
		s.opError(w, "reduction", err, cost)
		return
	}
	s.reduceLatency.Observe(time.Since(start).Seconds())
	writeROM(w, digest, rom)
}

// reduceLocal is the one local reduction of a reduce request or batch
// item: admit its cost, reduce, and record the artifact (remember, and
// afterWrite when it is new on this node). errStatus maps its errors.
func (s *Server) reduceLocal(ctx context.Context, sys *avtmor.System, req *query.Request, digest string, cost int64) (*avtmor.ROM, error) {
	release, err := s.admit(ctx, cost)
	if err != nil {
		return nil, err
	}
	defer release()
	reduce := s.reducer.Reduce
	if req.Norm {
		reduce = s.reducer.ReduceNORM
	}
	had := s.hasLocal(digest)
	rom, err := reduce(ctx, sys, req.Opts...)
	if err != nil {
		return nil, err
	}
	s.remember(digest, rom)
	if !had {
		// A fresh artifact: write through to the co-replicas (or tag it
		// for handoff if this was an owner-down fallback).
		s.afterWrite(ctx, digest, rom)
	}
	return rom, nil
}

// readBody reads the bounded request body, answering 413/400 itself
// on failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
		} else {
			s.httpError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// writeROM buffers an artifact and streams it with its content-address
// headers. Buffering (ROMs are small — they are the *reduced* models)
// buys an exact Content-Length on every response instead of a chunked
// stream of whatever the serialization produced, and the digest doubles
// as a strong ETag so clients can revalidate later GETs for free.
func writeROM(w http.ResponseWriter, digest string, rom *avtmor.ROM) {
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		http.Error(w, fmt.Sprintf("serializing ROM: %v", err), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	h.Set("ETag", `"`+digest+`"`)
	h.Set("X-Avtmor-Rom-Key", digest)
	h.Set("X-Avtmor-Rom-Order", strconv.Itoa(rom.Order()))
	w.Write(buf.Bytes())
}

// serveArtifact hands ROM bytes to http.ServeContent, which supplies
// Content-Length, range support, and the If-None-Match → 304 dance
// against the digest ETag. With an *os.File content the body copy is
// sendfile-eligible — the artifact travels disk → socket without
// touching user space, and without a single parse.
func serveArtifact(w http.ResponseWriter, r *http.Request, digest string, mtime time.Time, content io.ReadSeeker) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("ETag", `"`+digest+`"`)
	h.Set("X-Avtmor-Rom-Key", digest)
	http.ServeContent(w, r, "", mtime, content)
}

// handleGetROM serves a stored artifact by content address. On a
// clustered server, addresses owned by a peer are forwarded there
// unless the artifact is already local; an unreachable owner degrades
// to the local lookup (a miss is then the honest 404).
//
// With a store configured this is the zero-copy path: the store file
// is served directly (store.OpenRaw), so a GET costs an open + stat +
// sendfile instead of the old parse + re-serialize round trip, and an
// If-None-Match revalidation costs no artifact I/O at all. A file that
// fails the store's magic sniff is quarantined and reported 404 — the
// client re-reduces, the fleet self-heals. X-Avtmor-Rom-Order is a
// reduce-response header only; by-address GETs identify the artifact
// by its address alone (the order is in the bytes the client parses).
func (s *Server) handleGetROM(w http.ResponseWriter, r *http.Request) {
	s.romGets.Add(1)
	digest := r.PathValue("key")
	if etagMatches(r.Header.Get("If-None-Match"), digest) {
		// Content addressing makes revalidation free: the ETag *is* the
		// content identity, so a client presenting the digest already
		// holds the exact bytes. Answer 304 before routing — no peer
		// hop, no file I/O, no parse.
		h := w.Header()
		h.Set("ETag", `"`+digest+`"`)
		h.Set("X-Avtmor-Rom-Key", digest)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if s.forward(w, r, digest, nil, func() bool { return s.hasLocal(digest) }) {
		return
	}
	if s.cluster != nil && !s.hasLocal(digest) {
		// A replica for the address that is missing its copy (crash
		// recovery, a write-through push that never arrived) repairs
		// it from a co-replica before answering, so the GET is served
		// and the replica count is restored in one round trip.
		s.readRepair(r, digest)
	}
	if s.st != nil {
		f, fi, err := s.st.OpenRaw(digest)
		if errors.Is(err, fs.ErrNotExist) {
			s.httpError(w, http.StatusNotFound, "no ROM with key %s", digest)
			return
		}
		if err != nil {
			s.httpError(w, http.StatusInternalServerError, "opening ROM: %v", err)
			return
		}
		defer f.Close()
		serveArtifact(w, r, digest, fi.ModTime(), f)
		return
	}
	// No persistence: serve the in-memory artifact through the same
	// ServeContent path so ETag revalidation works identically.
	s.mu.Lock()
	rom := s.mem[digest]
	s.mu.Unlock()
	if rom == nil {
		s.httpError(w, http.StatusNotFound, "no ROM with key %s", digest)
		return
	}
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		s.httpError(w, http.StatusInternalServerError, "serializing ROM: %v", err)
		return
	}
	serveArtifact(w, r, digest, time.Time{}, bytes.NewReader(buf.Bytes()))
}

// etagMatches reports whether an If-None-Match header names the
// artifact's digest ETag (strong or weak form, any list position).
func etagMatches(inm, digest string) bool {
	if inm == "" {
		return false
	}
	want := `"` + digest + `"`
	for _, part := range strings.Split(inm, ",") {
		if strings.TrimPrefix(strings.TrimSpace(part), "W/") == want {
			return true
		}
	}
	return false
}

// errStatus maps a failure of op ("reduction"/"simulation") or of its
// admission to a status: over budget → 429, shutdown → 503, the
// request's own deadline → 504, client gone → 499 (nginx's convention;
// the client never sees it), and anything else (singular expansion
// point, order too large, diverged Newton, …) is the client's request
// meeting this system → 422. It is the one taxonomy the single-request
// and the per-item batch paths speak.
func (s *Server) errStatus(op string, err error, cost int64) (int, string) {
	switch {
	case errors.Is(err, errOverBudget):
		return http.StatusTooManyRequests,
			fmt.Sprintf("admission budget exhausted (request cost %d of %d), retry later", cost, s.adm.budget)
	case errors.Is(err, errClosed):
		return http.StatusServiceUnavailable, "shutting down"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, op + " deadline exceeded"
	case errors.Is(err, context.Canceled):
		return 499, "client canceled"
	default:
		return http.StatusUnprocessableEntity, fmt.Sprintf("%s failed: %v", op, err)
	}
}

// opError answers a failure of op or of its admission over HTTP. A 429
// carries a Retry-After scaled by the request's share of the budget: a
// clipper retries in a second, a fleet-filling multipoint reduce backs
// off harder.
func (s *Server) opError(w http.ResponseWriter, op string, err error, cost int64) {
	code, msg := s.errStatus(op, err, cost)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.FormatInt(1+4*cost/s.adm.budget, 10))
	}
	s.httpError(w, code, "%s", msg)
}
