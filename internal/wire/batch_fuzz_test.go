package wire

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadBatch drives both batch decoders with arbitrary bytes. Any
// input may fail and none may panic; an accepted frame holds 1 to
// MaxBatchItems items and re-encodes to exactly the bytes the decoder
// consumed. Seeds are request and response frames with one and several
// items, an empty body and a 1 KiB key, and their truncations and bit
// flips; go test runs them as regression cases.
func FuzzReadBatch(f *testing.F) {
	const maxItem = 4096
	var frames [][]byte
	addReq := func(items ...[]byte) {
		var b bytes.Buffer
		if err := WriteBatchRequest(&b, items); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b.Bytes())
	}
	addResp := func(results ...Result) {
		var b bytes.Buffer
		if err := WriteBatchResponse(&b, results); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b.Bytes())
	}
	addReq([]byte("R1 n1 0 2.0\n.out n1\n"))
	addReq([]byte("I1 0 n1 IN0 1\nC1 n1 0 1\n.out n1\n"), []byte{}, bytes.Repeat([]byte{0xAB}, 300))
	addResp(Result{Status: 200, Key: strings.Repeat("ab", 32), Body: []byte("AVTMROM\x00rom bytes")})
	addResp(
		Result{Status: 200, Key: strings.Repeat("k", 1024), Body: []byte{}},
		Result{Status: 400, Key: "", Body: []byte("parsing system: no such node")},
		Result{Status: 503, Key: strings.Repeat("cd", 32), Body: []byte("draining")},
	)
	for _, fr := range frames {
		f.Add(fr)
		f.Add(fr[:len(fr)/2])
		f.Add(fr[:len(fr)-1])
		for _, at := range []int{3, 8, 12, len(fr) - 1} {
			flipped := bytes.Clone(fr)
			flipped[at] ^= 0xFF
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if items, err := ReadBatchRequest(r, maxItem); err == nil {
			consumed := data[:len(data)-r.Len()]
			if n := len(items); n < 1 || n > MaxBatchItems {
				t.Fatalf("request with %d items accepted", n)
			}
			var b bytes.Buffer
			if err := WriteBatchRequest(&b, items); err != nil {
				t.Fatalf("accepted request fails to re-encode: %v", err)
			}
			if !bytes.Equal(b.Bytes(), consumed) {
				t.Fatal("request re-encodes to different bytes than it was read from")
			}
		}
		r = bytes.NewReader(data)
		if results, err := ReadBatchResponse(r, maxItem); err == nil {
			consumed := data[:len(data)-r.Len()]
			if n := len(results); n < 1 || n > MaxBatchItems {
				t.Fatalf("response with %d results accepted", n)
			}
			var b bytes.Buffer
			if err := WriteBatchResponse(&b, results); err != nil {
				t.Fatalf("accepted response fails to re-encode: %v", err)
			}
			if !bytes.Equal(b.Bytes(), consumed) {
				t.Fatal("response re-encodes to different bytes than it was read from")
			}
		}
	})
}
