package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"avtmor"
	"avtmor/internal/wire"
	"avtmor/serve"
)

// TestServeRefusesSolverParameter: the LU backend is the solver
// layer's routing decision, not a request option. solver=dense with the
// serialized System of a 2599-state CSR-only line is a 400 that names
// the parameter, on /v1/reduce and /v1/reduce/batch alike, and the
// refusal allocates nowhere near the two n×n dense copies (about
// 110 MB) that forcing the dense LU on that body would build.
func TestServeRefusesSolverParameter(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	line := avtmor.RLCLine(1300).System
	if !line.SparseOnly() {
		t.Fatal("expected a CSR-only system")
	}
	var sysBody, frame bytes.Buffer
	if _, err := line.WriteTo(&sysBody); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteBatchRequest(&frame, [][]byte{sysBody.Bytes()}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/reduce", sysBody.Bytes()},
		{"/v1/reduce/batch", frame.Bytes()},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		resp, err := http.Post(ts.URL+tc.path+"?k1=1&solver=dense", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), `unknown parameter "solver"`) {
			t.Fatalf("%s with solver=dense: %d %.200q", tc.path, resp.StatusCode, msg)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Fatalf("%s with solver=dense allocated %d MB, want under 16 MB", tc.path, alloc>>20)
		}
	}
}
