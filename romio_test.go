package avtmor_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"avtmor"
)

// roundTrip serializes rom, deserializes it, and re-serializes the
// result, asserting the two byte streams are identical (bit-exact
// round trip).
func roundTrip(t *testing.T, rom *avtmor.ROM) *avtmor.ROM {
	t.Helper()
	var buf bytes.Buffer
	n, err := rom.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	first := append([]byte(nil), buf.Bytes()...)
	loaded, err := avtmor.ReadROM(bytes.NewReader(first))
	if err != nil {
		t.Fatalf("ReadROM: %v", err)
	}
	var buf2 bytes.Buffer
	if _, err := loaded.WriteTo(&buf2); err != nil {
		t.Fatalf("re-WriteTo: %v", err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("round trip is not bit-exact")
	}
	return loaded
}

func TestROMSerializationDenseSystem(t *testing.T) {
	ctx := context.Background()
	// NTLVoltage exercises G2 (CSR) and D1 (dense blocks) in the
	// reduced artifact.
	w := avtmor.NTLVoltage(20)
	rom, err := avtmor.Reduce(ctx, w.System,
		avtmor.WithOrders(5, 3, 2), avtmor.WithExpansion(w.S0))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, rom)
	if loaded.Order() != rom.Order() || loaded.Method() != rom.Method() {
		t.Fatalf("metadata changed: q %d→%d method %q→%q",
			rom.Order(), loaded.Order(), rom.Method(), loaded.Method())
	}
	// The build report is never serialized: a loaded ROM knows its
	// order and nothing else.
	if want := (avtmor.Stats{Order: rom.Order()}); loaded.Stats() != want {
		t.Fatalf("loaded stats %+v, want %+v", loaded.Stats(), want)
	}
	// Reloaded ROMs simulate identically: exact float equality, not a
	// tolerance.
	full, err := rom.Simulate(ctx, w.U, 5, avtmor.WithRK4(500))
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Simulate(ctx, w.U, 5, avtmor.WithRK4(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Y) != len(again.Y) {
		t.Fatal("trajectory lengths differ")
	}
	for k := range full.Y {
		if full.Y[k][0] != again.Y[k][0] {
			t.Fatalf("step %d: %v != %v (not bit-identical)", k, full.Y[k][0], again.Y[k][0])
		}
	}
	// The projection basis survives: Lift still works and the full
	// dimension is recoverable without the full model.
	if loaded.FullStates() != w.System.States() {
		t.Fatalf("full dimension %d, want %d", loaded.FullStates(), w.System.States())
	}
	if _, err := loaded.Lift(make([]float64, loaded.Order())); err != nil {
		t.Fatal(err)
	}
	// Full-model probes are gone by design.
	if _, err := loaded.H1Error(0, 0.1i); err == nil {
		t.Fatal("H1Error on a deserialized ROM must report the missing full model")
	}
	// But the ROM's own transfer function still evaluates, identically.
	ya, err := rom.TransferH1(0, 0.5+0.1i)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := loaded.TransferH1(0, 0.5+0.1i)
	if err != nil {
		t.Fatal(err)
	}
	if ya[0] != yb[0] {
		t.Fatalf("transfer changed: %v vs %v", ya[0], yb[0])
	}
}

func TestROMSerializationCSRMirroredSystem(t *testing.T) {
	ctx := context.Background()
	// A CSR-only source (no dense G1 exists at n = 5999): the K1-only
	// reduction and its artifact must round-trip too.
	w := avtmor.RLCLine(3000)
	if !w.System.SparseOnly() {
		t.Fatal("expected a CSR-only workload")
	}
	rom, err := avtmor.Reduce(ctx, w.System,
		avtmor.WithOrders(6, 0, 0), avtmor.WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, rom)
	full, err := rom.Simulate(ctx, w.U, 5, avtmor.WithTrapezoidal(200))
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Simulate(ctx, w.U, 5, avtmor.WithTrapezoidal(200))
	if err != nil {
		t.Fatal(err)
	}
	for k := range full.Y {
		if full.Y[k][0] != again.Y[k][0] {
			t.Fatalf("step %d differs", k)
		}
	}
}

// TestROMReadsV1V2 loads the stats block of the v1 and v2 formats: a
// real ROM's v3 stream with either block spliced in after the method
// loads, re-encodes to exactly the v3 bytes, and simulates identically.
func TestROMReadsV1V2(t *testing.T) {
	ctx := context.Background()
	w := avtmor.NTLCurrent(16)
	rom, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(3, 2, 1), avtmor.WithExpansion(w.S0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	want, err := rom.Simulate(ctx, w.U, 2, avtmor.WithRK4(200))
	if err != nil {
		t.Fatal(err)
	}
	st := rom.Stats()
	afterMethod := 12 + 4 + len(rom.Method())
	for _, version := range []uint32{1, 2} {
		s := newROMStream(version)
		s.Write(v3[12:afterMethod])
		s.u64(uint64(st.Candidates))
		s.u64(uint64(st.Order))
		s.u64(uint64(st.Build))
		s.str(st.Backend)
		s.u64(uint64(st.Factorizations))
		s.u64(uint64(st.SolveCacheHits))
		if version == 2 {
			s.u64(uint64(st.BatchSolves))
			s.u64(uint64(st.BatchColumns))
			s.u64(st.Allocs)
		}
		s.Write(v3[afterMethod:])
		loaded, err := avtmor.ReadROM(bytes.NewReader(s.Bytes()))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		var again bytes.Buffer
		if _, err := loaded.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), v3) {
			t.Fatalf("v%d stream re-encodes to different bytes than the v3 original", version)
		}
		if got := loaded.Stats(); got != (avtmor.Stats{Order: rom.Order()}) {
			t.Fatalf("v%d: loaded stats %+v carry more than the order", version, got)
		}
		got, err := loaded.Simulate(ctx, w.U, 2, avtmor.WithRK4(200))
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Y {
			if got.Y[k][0] != want.Y[k][0] {
				t.Fatalf("v%d step %d: %v != %v", version, k, got.Y[k][0], want.Y[k][0])
			}
		}
	}
}

func TestROMDeserializationRejectsGarbage(t *testing.T) {
	ctx := context.Background()
	w := avtmor.NTLCurrent(10)
	rom, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(3, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rom.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Corrupted magic.
	bad := append([]byte(nil), good...)
	bad[3] ^= 0xff
	if _, err := avtmor.ReadROM(bytes.NewReader(bad)); !errors.Is(err, avtmor.ErrBadMagic) {
		t.Fatalf("corrupted magic: got %v, want ErrBadMagic", err)
	}
	// Empty stream.
	if _, err := avtmor.ReadROM(bytes.NewReader(nil)); !errors.Is(err, avtmor.ErrBadMagic) {
		t.Fatalf("empty stream: got %v, want ErrBadMagic", err)
	}
	// Future format version (bytes 8..11, little-endian u32).
	bad = append([]byte(nil), good...)
	bad[8] = 0x7f
	if _, err := avtmor.ReadROM(bytes.NewReader(bad)); !errors.Is(err, avtmor.ErrVersion) {
		t.Fatalf("version mismatch: got %v, want ErrVersion", err)
	}
	// Truncation anywhere must error, never panic.
	for _, cut := range []int{12, 40, len(good) / 2, len(good) - 3} {
		if _, err := avtmor.ReadROM(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncated at %d bytes: expected an error", cut)
		}
	}
}

func TestROMConcatenatedStream(t *testing.T) {
	// ReadFrom consumes exactly one ROM's bytes (no read-ahead), so
	// back-to-back ROMs in a single stream deserialize in sequence.
	ctx := context.Background()
	w := avtmor.NTLCurrent(12)
	a, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := avtmor.Reduce(ctx, w.System, avtmor.WithOrders(4, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	na, _ := a.WriteTo(&stream)
	nb, _ := b.WriteTo(&stream)
	gotA, err := avtmor.ReadROM(&stream)
	if err != nil {
		t.Fatalf("first ROM: %v", err)
	}
	gotB := &avtmor.ROM{}
	n, err := gotB.ReadFrom(&stream)
	if err != nil {
		t.Fatalf("second ROM: %v", err)
	}
	if n != nb {
		t.Fatalf("ReadFrom consumed %d bytes, WriteTo wrote %d", n, nb)
	}
	_ = na
	if gotA.Order() != a.Order() || gotB.Order() != b.Order() {
		t.Fatalf("orders %d/%d, want %d/%d", gotA.Order(), gotB.Order(), a.Order(), b.Order())
	}
	if stream.Len() != 0 {
		t.Fatalf("%d unread bytes left in the stream", stream.Len())
	}
}
