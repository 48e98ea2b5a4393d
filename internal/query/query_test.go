package query

import (
	"net/url"
	"strings"
	"testing"
	"time"

	"avtmor"
)

const ladder = "I1 0 n1 IN0 1\nC1 n1 0 1\nR1 n1 0 2\nD1 n1 0 1 0.05\nR12 n1 n2 1\nC2 n2 0 1\nR2 n2 0 2\n.out n2\n"

func parse(t *testing.T, raw string) (*Request, error) {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	return Parse(q)
}

// TestParseKeys: every documented parameter parses to the options whose
// library cache key (RequestKey, RequestKeyNORM) the wire key equals.
func TestParseKeys(t *testing.T) {
	sys, err := System([]byte(ladder))
	if err != nil {
		t.Fatal(err)
	}
	k2 := avtmor.WithOrders(2, 0, 0)
	for _, tc := range []struct {
		query   string
		norm    bool
		opts    []avtmor.Option
		timeout time.Duration
	}{
		{query: "k1=2&k2=1", opts: []avtmor.Option{avtmor.WithOrders(2, 1, 0)}},
		{query: "k1=3&k3=2", opts: []avtmor.Option{avtmor.WithOrders(3, 0, 2)}},
		{query: "auto=1e-3", opts: []avtmor.Option{avtmor.WithAutoOrders(1e-3)}},
		{query: "", opts: []avtmor.Option{avtmor.WithAutoOrders(0)}},
		{query: "k1=2&s0=0.4", opts: []avtmor.Option{k2, avtmor.WithExpansion(0.4)}},
		{query: "k1=2&s0=0.4&xp=0.9,1.5", opts: []avtmor.Option{k2, avtmor.WithExpansion(0.4, 0.9, 1.5)}},
		{query: "k1=2&xp=0.9", opts: []avtmor.Option{k2, avtmor.WithExpansion(0, 0.9)}},
		{query: "k1=2&droptol=1e-10", opts: []avtmor.Option{k2, avtmor.WithDropTol(1e-10)}},
		{query: "k1=2&solver=auto", opts: []avtmor.Option{k2, avtmor.WithSolver(avtmor.SolverAuto)}},
		{query: "k1=2&solver=dense", opts: []avtmor.Option{k2, avtmor.WithSolver(avtmor.SolverDense)}},
		{query: "k1=2&solver=sparse", opts: []avtmor.Option{k2, avtmor.WithSolver(avtmor.SolverSparse)}},
		{query: "k1=2&parallel=1", opts: []avtmor.Option{k2, avtmor.WithParallel()}},
		{query: "k1=2&method=assoc", opts: []avtmor.Option{k2}},
		{query: "k1=2&method=norm", norm: true, opts: []avtmor.Option{k2}},
		{query: "k1=2&timeout=30s", opts: []avtmor.Option{k2}, timeout: 30 * time.Second},
	} {
		t.Run(tc.query, func(t *testing.T) {
			req, err := parse(t, tc.query)
			if err != nil {
				t.Fatal(err)
			}
			want := avtmor.RequestKey(sys, tc.opts...)
			if tc.norm {
				want = avtmor.RequestKeyNORM(sys, tc.opts...)
			}
			if got := req.Key(sys); got != want {
				t.Fatalf("wire key %q, library key %q", got, want)
			}
			if req.Norm != tc.norm || req.Timeout != tc.timeout {
				t.Fatalf("norm %v timeout %v, want %v %v", req.Norm, req.Timeout, tc.norm, tc.timeout)
			}
		})
	}
}

// TestParseErrors: every documented misuse is an error, including the
// non-finite floats strconv accepts.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ query, msg string }{
		{"k1=two", "parameter k1"},
		{"k1=-1", "non-negative"},
		{"k1=2&k2=-2", "non-negative"},
		{"k1=2&auto=1e-4", "mutually exclusive"},
		{"k1=0&k2=0", "at least one positive"},
		{"k1=2&decoupledh2=yes", `unknown parameter "decoupledh2"`},
		{"k1=2&parallel=2", "parameter parallel"},
		{"k1=2&s0=abc", "parameter s0"},
		{"k1=2&droptol=x", "parameter droptol"},
		{"auto=tiny", "parameter auto"},
		{"k1=2&xp=0.4,,0.9", "parameter xp"},
		{"k1=2&xp=a", "parameter xp"},
		{"k1=2&s0=NaN", "finite"},
		{"k1=2&s0=%2BInf", "finite"},
		{"k1=2&s0=-Inf", "finite"},
		{"k1=2&xp=NaN", "finite"},
		{"k1=2&xp=0.4,Inf", "finite"},
		{"k1=2&droptol=%2BInf", "finite"},
		{"auto=NaN", "finite"},
		{"auto=Inf", "finite"},
		{"k1=2&solver=magic", "parameter solver"},
		{"k1=2&method=magic", "parameter method"},
		{"k1=2&timeout=abc", "parameter timeout"},
		{"k1=2&timeout=0s", "parameter timeout"},
		{"k1=2&timeout=-1s", "parameter timeout"},
		{"k1=2&k2=1&norm=1", `unknown parameter "norm"`},
		{"k1=2&k2=1&s0=0.4&s1=0.4", `unknown parameter "s1"`},
		{"k1=2&k2=1&s0=0.4&blocksize=4", `unknown parameter "blocksize"`},
		{"k1=2&k2=1&decoupledh2=1", `unknown parameter "decoupledh2"`},
		{"k1=2&k2=1&decoupledh2=true", `unknown parameter "decoupledh2"`},
	} {
		t.Run(tc.query, func(t *testing.T) {
			_, err := parse(t, tc.query)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("error %q lacks %q", err, tc.msg)
			}
		})
	}
}
