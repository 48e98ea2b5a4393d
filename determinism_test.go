package avtmor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"avtmor/internal/mat"
)

// goldenCase is one request of the golden artifact set.
type goldenCase struct {
	name string
	sys  *System
	norm bool
	opts []Option
}

// goldenCases is the golden artifact set: the §3 testbenches at
// internal/exper's orders, §3.2 and §3.3 through ReduceNORM too, a
// sparse multipoint RLC line, the netlist diode ladder, a two-port
// RLC line whose far-port moments decay past the basis cut
// (internal/qr) — it and the RLC line are the members whose bases the
// cut changes — and a chain with both a quadratic and a cubic term,
// whose quadratic and cubic H3 chains share one Schur form of G1.
func goldenCases(t testing.TB) []goldenCase {
	s31, s32, s33, s34 := NTLVoltage(50), NTLCurrent(70), RFReceiver(), Varistor()
	return []goldenCase{
		{"s31", s31.System, false, []Option{WithOrders(7, 4, 2), WithExpansion(s31.S0)}},
		{"s32", s32.System, false, []Option{WithOrders(6, 3, 2), WithExpansion(s32.S0)}},
		{"s33", s33.System, false, []Option{WithOrders(4, 2, 0), WithExpansion(s33.S0)}},
		{"s34", s34.System, false, []Option{WithOrders(7, 0, 2), WithExpansion(s34.S0)}},
		{"s32-norm", s32.System, true, []Option{WithOrders(6, 3, 2), WithExpansion(s32.S0)}},
		{"s33-norm", s33.System, true, []Option{WithOrders(4, 2, 0), WithExpansion(s33.S0)}},
		{"rlc-line-256", RLCLine(256).System, false, []Option{WithOrders(6, 0, 0), WithExpansion(1, 0.4, 0.9)}},
		{"netlist-ladder", diodeLadder(t), false, []Option{WithOrders(4, 2, 0), WithExpansion(0.4)}},
		{"two-port-line-800", twoPortLine(t, 800), false, []Option{WithOrders(6, 0, 0), WithExpansion(0, 0.4, 0.9)}},
		{"mixed-quad-cubic", mixedChain(t), false, []Option{WithOrders(4, 2, 2), WithExpansion(0.5)}},
	}
}

// GoldenRequest returns the system and options of the named golden
// case, so that the benchmarks of package avtmor_test reduce exactly a
// golden request.
func GoldenRequest(tb testing.TB, name string) (*System, []Option) {
	tb.Helper()
	for _, c := range goldenCases(tb) {
		if c.name == name {
			return c.sys, c.opts
		}
	}
	tb.Fatalf("no golden case %q", name)
	return nil, nil
}

// TestTwoPortLineBasisCut: the two-port line's far-port moments decay
// along it over far more than 2^200, and every column of its ROM's V
// holds only zeros and entries within 2^200 of the column's largest
// |entry|, so no product of up to five basis entries leaves the normal
// range.
func TestTwoPortLineBasisCut(t *testing.T) {
	sys, opts := GoldenRequest(t, "two-port-line-800")
	rom, err := Reduce(context.Background(), sys, opts...)
	if err != nil {
		t.Fatal(err)
	}
	v := rom.rom.V
	zeros := 0
	for j := 0; j < v.C; j++ {
		col := v.Col(j)
		big := mat.NormInf(col)
		for i, x := range col {
			if x == 0 {
				zeros++
			} else if math.Abs(x) < math.Ldexp(big, -200) {
				t.Fatalf("V[%d, %d] = %g, below 2^−200 of its column's largest %g", i, j, x, big)
			}
		}
	}
	if zeros == 0 {
		t.Fatalf("V (%d×%d) holds no zeros: the line's moments no longer reach the cut", v.R, v.C)
	}
}

// mixedChain is a 12-state SISO chain with G1 = diag(−1…−12) plus a ½
// subdiagonal, G2(i,i,i) = −0.1, G2(i,i,i+1) = 0.05 and
// G3(i,i,i,i) = −0.01, driven at the first state and observed at the
// last.
func mixedChain(t testing.TB) *System {
	t.Helper()
	const n = 12
	sb := NewSystemBuilder(n, 1, 1)
	for i := 0; i < n; i++ {
		sb.G1(i, i, -float64(i+1))
		if i > 0 {
			sb.G1(i, i-1, 0.5)
		}
		sb.G2(i, i, i, -0.1)
		if i+1 < n {
			sb.G2(i, i, i+1, 0.05)
		}
		sb.G3(i, i, i, i, -0.01)
	}
	sb.B(0, 0, 1).L(0, n-1, 1)
	sys, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// twoPortLine is an RLC line of the given sections (unit C and L,
// shunt conductance 2, series resistance 0.5, a unit far-end load),
// driven and observed at both ends.
func twoPortLine(t testing.TB, sections int) *System {
	t.Helper()
	sb := NewSystemBuilder(2*sections-1, 2, 2)
	for k := 0; k < sections; k++ {
		g := 2.0
		if k == sections-1 {
			g++
		}
		sb.G1(k, k, -g)
		if k > 0 {
			sb.G1(k, sections+k-1, 1)
		}
		if k < sections-1 {
			sb.G1(k, sections+k, -1)
		}
	}
	for k := 0; k < sections-1; k++ {
		b := sections + k
		sb.G1(b, k, 1).G1(b, k+1, -1).G1(b, b, -0.5)
	}
	sb.B(0, 0, 1).L(0, 0, 1)
	sb.B(sections-1, 1, 1).L(1, sections-1, 1)
	sys, err := sb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// reduceGolden reduces the golden set through rd at the given
// GOMAXPROCS and returns each artifact's bytes by case name.
func reduceGolden(t *testing.T, rd *Reducer, procs int, extra ...Option) map[string][]byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx := context.Background()
	out := map[string][]byte{}
	for _, c := range goldenCases(t) {
		reduce := rd.Reduce
		if c.norm {
			reduce = rd.ReduceNORM
		}
		rom, err := reduce(ctx, c.sys, append(c.opts, extra...)...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var buf bytes.Buffer
		if _, err := rom.WriteTo(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out[c.name] = buf.Bytes()
	}
	return out
}

// goldenBytes caches the golden set reduced once per test binary,
// serially at GOMAXPROCS 1 through its own store-less Reducer.
var (
	goldenMu    sync.Mutex
	goldenBytes map[string][]byte
)

func golden(t *testing.T) map[string][]byte {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if goldenBytes == nil {
		goldenBytes = reduceGolden(t, NewReducer(), 1)
	}
	return goldenBytes
}

// TestROMBytesDeterministicAcrossGOMAXPROCS pins one key ↔ one byte
// string with nothing masked: two independent store-less Reducers, one
// serial at GOMAXPROCS 1 and one at GOMAXPROCS 4 with WithParallel
// (moment generators and shifts in parallel), serialize
// every golden artifact to the same bytes. Each artifact also survives
// a load and re-encode byte for byte.
func TestROMBytesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	one := golden(t)
	four := reduceGolden(t, NewReducer(), 4, WithParallel())
	for name, a := range one {
		if !bytes.Equal(a, four[name]) {
			t.Errorf("%s: serialized ROM differs between GOMAXPROCS=1 (%d bytes) and GOMAXPROCS=4 with WithParallel (%d bytes)", name, len(a), len(four[name]))
		}
		rom, err := ReadROM(bytes.NewReader(a))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var again bytes.Buffer
		if _, err := rom.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, again.Bytes()) {
			t.Errorf("%s: a loaded ROM re-encodes to different bytes", name)
		}
	}
}

// TestROMBytesDeterministicAfterEviction: a Reducer with a one-entry
// cache and no store reduces A, B, then A again; the second reduction of
// A reproduces the first one's bytes.
func TestROMBytesDeterministicAfterEviction(t *testing.T) {
	ctx := context.Background()
	a, b := NTLCurrent(20), NTLVoltage(12)
	rd := NewReducer(WithCacheLimit(1))
	encode := func(w *Workload) []byte {
		rom, err := rd.Reduce(ctx, w.System, WithOrders(3, 2, 2), WithExpansion(w.S0))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := rom.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode(a)
	encode(b)
	again := encode(a)
	if st := rd.Stats(); st.Reductions != 3 || st.CacheHits != 0 {
		t.Fatalf("want 3 reductions and no cache hit, got %+v", st)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("re-reducing an evicted key produced different bytes")
	}
}

// goldenEpoch is the artifactEpoch at which goldenDigests was recorded.
const goldenEpoch = 3

// goldenDigests is the SHA-256 of each golden artifact, recorded on
// linux/amd64.
var goldenDigests = map[string]string{
	"mixed-quad-cubic":  "3b4d8dc8af6ee7789e129d96de299526e075ea0c9293aff4efcc87454e7f215a",
	"netlist-ladder":    "4b7f923e72c1e05a8c846a4b4010534017a7b603e158b11f4659fbe610da9ba5",
	"rlc-line-256":      "cdb8635e102260936fbd6cdf59b8583381a1fe0be9bcd397fc07a5b9a1503e07",
	"s31":               "6c5026dfd294575f79a0030bb13394f8e438209c6c64b64bb25f679b4059f64a",
	"s32":               "4df96ed3860bbd0e4390d76ba6663c65b22f861a1c5823eaa013c5a4ee8e90d2",
	"s32-norm":          "8d703dc777cfb2613b7a337af4c18c1774af4307c2689959bf82c912aaa1ec6b",
	"s33":               "7186597311fe97421331a4fc37698d57c2d461611c5d03c88ab2f3148ecd5438",
	"s33-norm":          "c3fbaf71a1a775f51e62130ffc7a8f34f27a3a444ddddf0a13f41ba07009d1c2",
	"s34":               "567daebe732038f09df2b7efb1b50a4f75a392ff5327477cd54fb69933c2afa9",
	"two-port-line-800": "9a7a34a47fc39fdab2495e6387c8679abeb9b7e65aa77fbab1995349759edea3",
}

// TestArtifactEpochGolden ties artifact bytes to artifactEpoch: a digest
// that moves while the epoch stays fails, and so does an epoch that
// moves while the table stays. Bump artifactEpoch with any change to
// artifact bytes, then re-record goldenEpoch and goldenDigests from this
// test's failure message.
func TestArtifactEpochGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; gc may fuse multiply-adds on %s (ROADMAP item 2)", runtime.GOARCH)
	}
	got := map[string]string{}
	for name, b := range golden(t) {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var table strings.Builder
	fmt.Fprintf(&table, "const goldenEpoch = %d\n\nvar goldenDigests = map[string]string{\n", artifactEpoch)
	for _, name := range names {
		fmt.Fprintf(&table, "\t%q: %q,\n", name, got[name])
	}
	table.WriteString("}\n")
	if artifactEpoch != goldenEpoch {
		t.Fatalf("artifactEpoch is %d but the golden digests were recorded at epoch %d; re-record the table in determinism_test.go:\n\n%s",
			artifactEpoch, goldenEpoch, table.String())
	}
	var moved []string
	for _, name := range names {
		if goldenDigests[name] != got[name] {
			moved = append(moved, name)
		}
	}
	for name := range goldenDigests {
		if _, ok := got[name]; !ok {
			moved = append(moved, name)
		}
	}
	if len(moved) > 0 {
		t.Fatalf("artifact bytes changed at epoch %d (%s): bump artifactEpoch in options.go, then re-record the table in determinism_test.go with the new epoch:\n\n%s",
			artifactEpoch, strings.Join(moved, ", "), table.String())
	}
}
