package avtmor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"avtmor/internal/core"
	"avtmor/internal/mat"
	"avtmor/internal/sparse"
)

// ROM wire format (versioned, little-endian; documented in DESIGN.md):
//
//	magic   [8]byte  "AVTMROM\x00"
//	version uint32   currently 3
//	method  string   (uint32 length + bytes)
//	flags   uint64   bit 0: projection basis V present
//	system  reduced QLDAE: n uint64, presence byte per matrix
//	        (G1, G1S, G2, G3, D1, then B and L unconditionally)
//	[V]     dense matrix
//
// v1 and v2 streams carry a build-stats block between method and flags
// (v1: candidates, order, build ns int64; backend string;
// factorizations, cacheHits int64. v2 adds batchSolves, batchColumns
// int64 and allocs uint64). ReadFrom skips it: v3 serializes only what
// the cache key determines, so one key names one byte string.
//
// Dense matrices serialize as rows, cols uint64 + row-major float64
// bit patterns; CSR as rows, cols, nnz uint64 + rowPtr + colIdx +
// value bits. Every float64 travels as its exact IEEE-754 bits, so a
// WriteTo → ReadFrom round trip is bit-exact and a reloaded ROM
// simulates identically.

var romMagic = [8]byte{'A', 'V', 'T', 'M', 'R', 'O', 'M', 0}

// romFormatVersion is bumped on any wire-format change; readers reject
// versions they do not understand. Version 3 dropped the build-stats
// block of v1/v2, which still load (the block is read and discarded).
const romFormatVersion = 3

// romMinReadVersion is the oldest stream version this build accepts.
const romMinReadVersion = 1

// ErrBadMagic is returned by ReadFrom when the stream does not start
// with the ROM magic header (corrupted or foreign data).
var ErrBadMagic = errors.New("avtmor: not a serialized ROM (bad magic header)")

// ErrVersion is returned by ReadFrom for a well-formed header whose
// format version this build does not support.
var ErrVersion = errors.New("avtmor: unsupported ROM format version")

// maxROMDim bounds each deserialized dimension and maxROMElems the
// element count of any single matrix (≈2 GiB of float64s) as sanity
// checks: a corrupted stream must fail with an error from ReadFrom,
// never a makeslice panic or an absurd allocation.
const (
	maxROMDim   = 1 << 28
	maxROMElems = 1 << 28
)

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
}

func (cw *countingWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	cw.write(b[:])
}

func (cw *countingWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	cw.write(b[:])
}

func (cw *countingWriter) f64s(vs []float64) {
	// Chunked conversion keeps the fast path allocation-bounded.
	var buf [512 * 8]byte
	for len(vs) > 0 {
		n := len(vs)
		if n > 512 {
			n = 512
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vs[i]))
		}
		cw.write(buf[:n*8])
		vs = vs[n:]
	}
}

func (cw *countingWriter) ints(vs []int) {
	for _, v := range vs {
		cw.u64(uint64(v))
	}
}

func (cw *countingWriter) str(s string) {
	cw.u32(uint32(len(s)))
	cw.write([]byte(s))
}

func (cw *countingWriter) dense(d *mat.Dense) {
	cw.u64(uint64(d.R))
	cw.u64(uint64(d.C))
	cw.f64s(d.A)
}

func (cw *countingWriter) csr(c *sparse.CSR) {
	cw.u64(uint64(c.Rows))
	cw.u64(uint64(c.Cols))
	cw.u64(uint64(c.NNZ()))
	cw.ints(c.RowPtr)
	cw.ints(c.ColIdx)
	cw.f64s(c.Val)
}

// WriteTo serializes the ROM (method, reduced system, projection basis
// when present) in the versioned binary format. It implements
// io.WriterTo. The build report (Stats) is not written: the bytes are a
// function of the cache key alone.
func (r *ROM) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	cw.write(romMagic[:])
	cw.u32(romFormatVersion)
	cw.str(r.rom.Method)
	var flags uint64
	if r.rom.V != nil {
		flags |= 1
	}
	cw.u64(flags)
	cw.systemBody(r.rom.Sys)
	if r.rom.V != nil {
		cw.dense(r.rom.V)
	}
	return cw.n, cw.err
}

type countingReader struct {
	r   io.Reader
	n   int64
	err error
}

func (cr *countingReader) read(p []byte) {
	if cr.err != nil {
		return
	}
	n, err := io.ReadFull(cr.r, p)
	cr.n += int64(n)
	cr.err = err
}

func (cr *countingReader) u64() uint64 {
	var b [8]byte
	cr.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (cr *countingReader) u32() uint32 {
	var b [4]byte
	cr.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (cr *countingReader) dim() int {
	v := cr.u64()
	if cr.err == nil && v > maxROMDim {
		cr.err = fmt.Errorf("avtmor: implausible dimension %d in ROM stream (corrupted?)", v)
	}
	return int(v)
}

// readAllocCap bounds the upfront capacity of a deserialized slice.
// Growth past it happens by append, strictly in step with bytes that
// actually arrived: a corrupted header claiming a gigantic matrix fails
// with io.ErrUnexpectedEOF after at most one chunk of over-allocation
// instead of attempting the full make() first.
const readAllocCap = 1 << 16

func (cr *countingReader) f64s(n int) []float64 {
	if cr.err != nil || n == 0 {
		return []float64{}
	}
	c := n
	if c > readAllocCap {
		c = readAllocCap
	}
	dst := make([]float64, 0, c)
	var buf [512 * 8]byte
	for len(dst) < n {
		k := n - len(dst)
		if k > 512 {
			k = 512
		}
		cr.read(buf[:k*8])
		if cr.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return dst
}

func (cr *countingReader) ints(n int) []int {
	if cr.err != nil || n == 0 {
		return []int{}
	}
	c := n
	if c > readAllocCap {
		c = readAllocCap
	}
	dst := make([]int, 0, c)
	var buf [512 * 8]byte
	for len(dst) < n {
		k := n - len(dst)
		if k > 512 {
			k = 512
		}
		cr.read(buf[:k*8])
		if cr.err != nil {
			return nil
		}
		for i := 0; i < k; i++ {
			dst = append(dst, int(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return dst
}

func (cr *countingReader) str() string {
	n := cr.u32()
	if cr.err != nil {
		return ""
	}
	if n > 1<<20 {
		cr.err = fmt.Errorf("avtmor: implausible string length %d in ROM stream", n)
		return ""
	}
	b := make([]byte, n)
	cr.read(b)
	return string(b)
}

func (cr *countingReader) byte() byte {
	var b [1]byte
	cr.read(b[:])
	return b[0]
}

func (cr *countingReader) dense() *mat.Dense {
	rows, cols := cr.dim(), cr.dim()
	if cr.err == nil && rows*cols > maxROMElems {
		cr.err = fmt.Errorf("avtmor: implausible dense matrix %d×%d in ROM stream (corrupted?)", rows, cols)
	}
	if cr.err != nil {
		return nil
	}
	a := cr.f64s(rows * cols)
	if cr.err != nil {
		return nil
	}
	return &mat.Dense{R: rows, C: cols, A: a}
}

func (cr *countingReader) csr() *sparse.CSR {
	rows, cols, nnz := cr.dim(), cr.dim(), cr.dim()
	if cr.err == nil && nnz > maxROMElems {
		cr.err = fmt.Errorf("avtmor: implausible CSR nonzero count %d in ROM stream (corrupted?)", nnz)
	}
	if cr.err != nil {
		return nil
	}
	c := &sparse.CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: cr.ints(rows + 1),
		ColIdx: cr.ints(nnz),
		Val:    cr.f64s(nnz),
	}
	if cr.err != nil {
		return nil
	}
	// Structural consistency: a stream that passes here must be safe
	// for the index arithmetic of every sparse kernel downstream.
	if c.RowPtr[0] != 0 || c.RowPtr[rows] != nnz {
		cr.err = fmt.Errorf("avtmor: corrupted CSR row pointers in ROM stream")
		return nil
	}
	for r := 0; r < rows; r++ {
		if c.RowPtr[r] > c.RowPtr[r+1] {
			cr.err = fmt.Errorf("avtmor: corrupted CSR row pointers in ROM stream")
			return nil
		}
	}
	for _, j := range c.ColIdx {
		if j < 0 || j >= cols {
			cr.err = fmt.Errorf("avtmor: CSR column index %d out of %d in ROM stream", j, cols)
			return nil
		}
	}
	return c
}

// SniffROM reports whether b begins with the serialized-ROM magic
// header (at least 8 bytes are needed; shorter prefixes report false).
// It is the cheap wire-format sniff for callers that serve stored
// artifacts without deserializing them — a positive sniff says "this
// is a ROM stream", not "this stream is intact"; full validation is
// ReadROM's job.
func SniffROM(b []byte) bool {
	return len(b) >= len(romMagic) && [8]byte(b[:8]) == romMagic
}

// ReadROM deserializes a ROM previously written by WriteTo.
func ReadROM(r io.Reader) (*ROM, error) {
	rom := &ROM{}
	if _, err := rom.ReadFrom(r); err != nil {
		return nil, err
	}
	return rom, nil
}

// ReadFrom deserializes into r, replacing its contents. It implements
// io.ReaderFrom: exactly the ROM's bytes are consumed (no read-ahead),
// so ROMs can be concatenated in one stream and the returned count
// seeks past the one just read. The loaded ROM simulates and evaluates
// TransferH1 identically to the one written; the full-model error
// probes (H1Error, …) report an error since the artifact does not
// embed the full system, and Stats reports only Order, since the build
// report is never serialized. ROMs handed out by a Reducer are refused —
// they are shared cache entries; deserialize into a fresh ROM with
// ReadROM instead.
func (r *ROM) ReadFrom(src io.Reader) (int64, error) {
	if r.shared {
		return 0, errors.New("avtmor: refusing to overwrite a Reducer-cached ROM (shared instance); use ReadROM for a fresh one")
	}
	cr := &countingReader{r: src}
	var magic [8]byte
	cr.read(magic[:])
	if cr.err != nil {
		return cr.n, fmt.Errorf("%w: %v", ErrBadMagic, cr.err)
	}
	if magic != romMagic {
		return cr.n, ErrBadMagic
	}
	version := cr.u32()
	if cr.err == nil && (version < romMinReadVersion || version > romFormatVersion) {
		return cr.n, fmt.Errorf("%w: stream has v%d, this build reads v%d–v%d", ErrVersion, version, romMinReadVersion, romFormatVersion)
	}
	out := &core.ROM{}
	out.Method = cr.str()
	if version < 3 {
		// Skip the v1/v2 stats block.
		var skip [3 * 8]byte
		cr.read(skip[:])    // candidates, order, build ns
		cr.str()            // backend
		cr.read(skip[:2*8]) // factorizations, cache hits
		if version == 2 {
			cr.read(skip[:]) // batch solves, batch columns, allocs
		}
	}
	flags := cr.u64()
	sys := cr.systemBody()
	if flags&1 != 0 {
		out.V = cr.dense()
	}
	if cr.err != nil {
		return cr.n, fmt.Errorf("avtmor: truncated or corrupted ROM stream: %w", cr.err)
	}
	if err := sys.Validate(); err != nil {
		return cr.n, fmt.Errorf("avtmor: deserialized ROM is inconsistent: %w", err)
	}
	out.Sys = sys
	out.Stats.Order = sys.N
	r.rom = out
	return cr.n, nil
}
