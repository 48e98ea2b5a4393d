// Package store persists ROM artifacts on disk, content-addressed by
// the Reducer cache key (system fingerprint + canonical reduction
// options): each ROM lives in one file named by the SHA-256 digest of
// its key, in the bit-exact wire format of avtmor.ROM.WriteTo. The
// store is the durable second tier behind the in-memory Reducer cache —
// reduce once, serve the artifact across restarts and processes.
//
// Invariants:
//
//   - Writes are atomic: a ROM is serialized to a hidden temp file in
//     the store directory, fsynced, and renamed into place. Readers
//     (including concurrent processes sharing the directory) only ever
//     see complete files.
//   - Corruption is quarantined, never served: a file that fails
//     ReadFrom validation — at open-time scan or on a later load — is
//     moved into the quarantine/ subdirectory for post-mortem and
//     dropped from the index, so the daemon self-heals by re-reducing.
//   - The in-memory index is rebuilt by scanning the directory on
//     Open; no sidecar manifest exists that could go stale. The scan
//     deserializes every artifact, so Open costs O(total store bytes)
//     — the price of guaranteeing that everything indexed is servable
//     before the daemon starts accepting traffic.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"avtmor"
)

const (
	romExt        = ".rom"
	orphanExt     = ".orphan"
	tmpPrefix     = ".tmp-"
	quarantineDir = "quarantine"
)

// DigestLen is the length of a content address: hex SHA-256.
const DigestLen = 2 * sha256.Size

// Store is a content-addressed on-disk ROM store. It implements
// avtmor.ROMStore and is safe for concurrent use.
type Store struct {
	dir string

	mu          sync.Mutex
	index       map[string]bool // guarded by mu; digest → present
	orphans     map[string]bool // guarded by mu; digest → stored here but owned elsewhere
	quarantined int64
	loads, hits int64
	rawOpens    int64
}

// Stats is a snapshot of the store's population and lifetime counters.
type Stats struct {
	// ROMs is the current indexed artifact count.
	ROMs int
	// Quarantined counts files moved aside as corrupt (scan + load).
	Quarantined int64
	// Loads counts Load/Get calls; Hits the ones that returned a ROM.
	Loads, Hits int64
	// RawOpens counts OpenRaw calls that handed out a file for
	// zero-copy serving — artifact bytes that left the store without a
	// single parse.
	RawOpens int64
	// Orphans is the current count of artifacts marked as stored here
	// but owned elsewhere on the cluster ring, awaiting anti-entropy
	// handoff.
	Orphans int
}

// Digest returns the content address of a cache key: the hex SHA-256
// of the canonical key string. It is the artifact's file stem on disk
// and the ROM id in the serve package's URLs.
func Digest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// ValidDigest reports whether d is a well-formed content address:
// exactly DigestLen lowercase hex digits.
func ValidDigest(d string) bool {
	if len(d) != DigestLen {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Open creates dir if needed and rebuilds the index by scanning it:
// leftover temp files from a crashed writer are removed, files that
// are not well-formed ROMs (bad name, bad magic, truncation, failed
// validation) are quarantined, everything else is indexed and
// servable.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, index: map[string]bool{}, orphans: map[string]bool{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// The scan builds local maps and installs them under the lock at
	// the end: the store is not published yet, but keeping every
	// guarded-field access locked lets the invariant stay checkable.
	index := map[string]bool{}
	orphans := map[string]bool{}
	var markers []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasSuffix(name, orphanExt) {
			markers = append(markers, strings.TrimSuffix(name, orphanExt))
			continue
		}
		if !strings.HasSuffix(name, romExt) {
			continue
		}
		digest := strings.TrimSuffix(name, romExt)
		if !ValidDigest(digest) || s.validate(filepath.Join(dir, name)) != nil {
			s.quarantine(name)
			continue
		}
		index[digest] = true
	}
	// Orphan markers survive restarts, but a marker whose artifact is
	// gone (handed off, quarantined) is stale — remove it.
	for _, d := range markers {
		if ValidDigest(d) && index[d] {
			orphans[d] = true
		} else {
			os.Remove(filepath.Join(dir, d+orphanExt))
		}
	}
	s.mu.Lock()
	s.index = index
	s.orphans = orphans
	s.mu.Unlock()
	return s, nil
}

// validate reads the file as a ROM, returning any deserialization
// error.
func (s *Store) validate(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = avtmor.ReadROM(bufio.NewReader(f))
	return err
}

// quarantine moves a store file aside so it is never served again. A
// failed move (or a name collision in quarantine/) falls back to
// leaving the file unindexed — the effect on serving is the same.
func (s *Store) quarantine(name string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name))
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
}

// Len returns the indexed artifact count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns the sorted digests of every indexed artifact.
func (s *Store) Keys() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.index))
	for d := range s.index {
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Has reports whether an artifact with the given content address is
// servable, without deserializing it: an index hit answers
// immediately, and an unindexed digest falls back to a filesystem
// stat so artifacts dropped in by a sibling process after Open are
// still visible. It is the cheap local-presence probe the serve
// tier's cluster routing uses to decide whether a by-address request
// needs forwarding at all.
func (s *Store) Has(digest string) bool {
	if !ValidDigest(digest) {
		return false
	}
	s.mu.Lock()
	present := s.index[digest]
	s.mu.Unlock()
	if present {
		return true
	}
	if _, err := os.Stat(filepath.Join(s.dir, digest+romExt)); err != nil {
		return false
	}
	// Seen on disk but not indexed: a sibling wrote it. Do not index it
	// here — Get validates before indexing, Has must stay O(stat).
	return true
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{ROMs: len(s.index), Quarantined: s.quarantined, Loads: s.loads, Hits: s.hits, RawOpens: s.rawOpens, Orphans: len(s.orphans)}
}

// OpenRaw returns the stored artifact's open file and its FileInfo
// (size, mtime) for zero-copy serving — http.ServeContent can hand the
// file straight to the socket (sendfile-eligible) without the
// parse + re-serialize round trip of Get. A miss, an invalid digest,
// or a file that fails the magic sniff reports fs.ErrNotExist; the
// caller owns closing the returned file.
//
// Only the 8-byte magic header is sniffed (then the offset is rewound
// to 0): the scan at Open validated every indexed artifact in full,
// writes are atomic, and Get quarantines on any later load failure, so
// the sniff's job is catching a file truncated or zeroed behind the
// store's back — which it also quarantines — not re-proving
// wire-format integrity on every request. Deeper post-scan corruption
// is caught by the client-side parse of the served bytes.
func (s *Store) OpenRaw(digest string) (*os.File, os.FileInfo, error) {
	s.mu.Lock()
	s.rawOpens++
	s.mu.Unlock()
	if !ValidDigest(digest) {
		return nil, nil, fs.ErrNotExist
	}
	name := digest + romExt
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			s.drop(digest)
			return nil, nil, fs.ErrNotExist
		}
		return nil, nil, err
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || !avtmor.SniffROM(magic[:]) {
		f.Close()
		s.drop(digest)
		s.quarantine(name)
		return nil, nil, fs.ErrNotExist
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	s.mu.Lock()
	s.index[digest] = true
	s.mu.Unlock()
	return f, fi, nil
}

// Load returns the ROM stored under the cache key, or (nil, nil) on a
// miss. It implements avtmor.ROMStore.
func (s *Store) Load(key string) (*avtmor.ROM, error) {
	return s.Get(Digest(key))
}

// Get returns the ROM with the given content address, or (nil, nil)
// when absent. A file that exists but fails deserialization is
// quarantined and reported as a miss. Addresses not in the index are
// still tried against the filesystem, so artifacts dropped in by a
// sibling process after Open are picked up.
func (s *Store) Get(digest string) (*avtmor.ROM, error) {
	s.mu.Lock()
	s.loads++
	s.mu.Unlock()
	if !ValidDigest(digest) {
		return nil, nil
	}
	name := digest + romExt
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			s.drop(digest)
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	rom, err := avtmor.ReadROM(bufio.NewReader(f))
	if err != nil {
		s.drop(digest)
		s.quarantine(name)
		return nil, nil
	}
	s.mu.Lock()
	s.index[digest] = true
	s.hits++
	s.mu.Unlock()
	return rom, nil
}

func (s *Store) drop(digest string) {
	s.mu.Lock()
	delete(s.index, digest)
	orphan := s.orphans[digest]
	delete(s.orphans, digest)
	s.mu.Unlock()
	if orphan {
		os.Remove(filepath.Join(s.dir, digest+orphanExt))
	}
}

// Store persists rom under the cache key with an atomic tmp+rename
// write; an artifact already present under the same address is left
// untouched (same key, same bytes). It implements avtmor.ROMStore.
func (s *Store) Store(key string, rom *avtmor.ROM) error {
	return s.write(Digest(key), rom)
}

// PutRaw persists an already-serialized artifact under its content
// address — the replication write path, where a replica receives the
// primary's bytes instead of recomputing the reduction. The bytes are
// fully deserialized first, so a corrupt or malicious push can never
// be indexed, and the write is the same atomic tmp+rename as Store.
// An artifact already present is left untouched (content addressing:
// same address, same bytes). The digest is the sender's claim about
// the cache key, which this node cannot recompute from the bytes; it
// is validated in form here and in substance when a client checks the
// X-Avtmor-Rom-Key header against its own canonical key.
func (s *Store) PutRaw(digest string, raw []byte) error {
	if !ValidDigest(digest) {
		return fs.ErrInvalid
	}
	if _, err := avtmor.ReadROM(bufio.NewReader(bytes.NewReader(raw))); err != nil {
		return err
	}
	return s.write(digest, bytes.NewReader(raw))
}

// write is the one artifact write of the store: src goes to a temp
// file, which is synced, renamed onto the content address and indexed.
// An artifact already present is left untouched.
func (s *Store) write(digest string, src io.WriterTo) error {
	s.mu.Lock()
	present := s.index[digest]
	s.mu.Unlock()
	if present {
		return nil
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriter(f)
	_, err = src.WriteTo(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, digest+romExt))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	s.mu.Lock()
	s.index[digest] = true
	s.mu.Unlock()
	return nil
}

// Remove deletes the artifact with the given content address (and any
// orphan marker) from disk and the index. Removing an absent artifact
// is a no-op.
func (s *Store) Remove(digest string) error {
	if !ValidDigest(digest) {
		return fs.ErrInvalid
	}
	err := os.Remove(filepath.Join(s.dir, digest+romExt))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	s.drop(digest)
	return nil
}

// MarkOrphan tags a stored artifact as owned elsewhere on the cluster
// ring: this node computed it as an owner-down fallback and keeps it
// only until the anti-entropy sweep hands it to the real owners. The
// marker is a sidecar file, so the tag survives restarts.
func (s *Store) MarkOrphan(digest string) error {
	if !ValidDigest(digest) {
		return fs.ErrInvalid
	}
	s.mu.Lock()
	already := s.orphans[digest]
	s.orphans[digest] = true
	s.mu.Unlock()
	if already {
		return nil
	}
	f, err := os.Create(filepath.Join(s.dir, digest+orphanExt))
	if err != nil {
		s.mu.Lock()
		delete(s.orphans, digest)
		s.mu.Unlock()
		return err
	}
	return f.Close()
}

// ClearOrphan removes the orphan tag: the artifact is rightfully this
// node's (placement changed, or it became an owner).
func (s *Store) ClearOrphan(digest string) {
	s.mu.Lock()
	present := s.orphans[digest]
	delete(s.orphans, digest)
	s.mu.Unlock()
	if present {
		os.Remove(filepath.Join(s.dir, digest+orphanExt))
	}
}

// Orphans returns the sorted content addresses currently tagged as
// orphaned.
func (s *Store) Orphans() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.orphans))
	for d := range s.orphans {
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// RawBytes returns the stored artifact's bytes, or fs.ErrNotExist —
// the replication read side of PutRaw, used when pushing a copy to a
// peer.
func (s *Store) RawBytes(digest string) ([]byte, error) {
	if !ValidDigest(digest) {
		return nil, fs.ErrNotExist
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, digest+romExt))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fs.ErrNotExist
		}
		return nil, err
	}
	return raw, nil
}
