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
// xp, droptol, solver, parallel, method, timeout).
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	s.reduceReqs.Add(1)
	start := time.Now()
	if !s.checkQuota(w, r, 1) {
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
	req, err := query.Parse(r.URL.Query())
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
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
	reduce := s.reducer.Reduce
	if req.Norm {
		reduce = s.reducer.ReduceNORM
	}
	digest := store.Digest(key)
	if owners := s.route(r, digest); owners != nil {
		// Other nodes own this key. If the artifact somehow already
		// lives here (pre-cluster history, an earlier owner-down
		// fallback), answer from the local tiers — content addressing
		// makes every copy identical. Otherwise forward the original
		// body bytes to the replicas in ring order, and degrade to
		// computing locally only when every one is unreachable or
		// draining.
		if cached, err := s.reducer.Lookup(key); err == nil && cached != nil {
			s.cluster.localHits.Add(1)
			s.remember(digest, cached)
			writeROM(w, digest, cached)
			return
		}
		for _, owner := range owners {
			if s.relay(w, r, owner, bytes.NewReader(body)) {
				return
			}
		}
		s.cluster.fallbackLocal.Add(1)
	}
	// Cache and store hits cost no compute: answer them without
	// touching the admission budget, so a warm key is never queued
	// behind an expensive burst.
	if cached, err := s.reducer.Lookup(key); err == nil && cached != nil {
		s.remember(digest, cached)
		s.reduceLatency.Observe(time.Since(start).Seconds())
		writeROM(w, digest, cached)
		return
	}
	release, admitted := s.admitted(ctx, w, cost)
	if !admitted {
		return
	}
	defer release()
	had := s.hasLocal(digest)
	rom, err := reduce(ctx, sys, req.Opts...)
	if err != nil {
		s.opError(w, "reduction", err)
		return
	}
	s.remember(digest, rom)
	if !had {
		// A fresh artifact: write through to the co-replicas (or tag it
		// for handoff if this was an owner-down fallback).
		s.afterWrite(ctx, digest, rom)
	}
	s.reduceLatency.Observe(time.Since(start).Seconds())
	writeROM(w, digest, rom)
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
	if owners := s.route(r, digest); owners != nil {
		if s.hasLocal(digest) {
			s.cluster.localHits.Add(1)
		} else {
			for _, owner := range owners {
				if s.relay(w, r, owner, nil) {
					return
				}
			}
			s.cluster.fallbackLocal.Add(1)
		}
	} else if s.cluster != nil && !s.hasLocal(digest) {
		// This node is a replica for the address but is missing its
		// copy (crash recovery, a write-through push that never
		// arrived): read-repair from a co-replica before answering, so
		// the GET is served and the replica count is restored in one
		// round trip.
		s.readRepair(r.Context(), digest)
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

// opStatus maps engine failures of op ("reduction"/"simulation"):
// context expiry → 504, anything else (singular expansion point,
// order too large, diverged Newton, …) is the client's request
// meeting this system → 422.
func opStatus(op string, err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, op + " deadline exceeded"
	case errors.Is(err, context.Canceled):
		return 499, "client canceled"
	default:
		return http.StatusUnprocessableEntity, fmt.Sprintf("%s failed: %v", op, err)
	}
}

// opError answers an engine failure over HTTP.
func (s *Server) opError(w http.ResponseWriter, op string, err error) {
	code, msg := opStatus(op, err)
	s.httpError(w, code, "%s", msg)
}
