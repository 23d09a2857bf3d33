package zstdlite

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecompress asserts the frame decode paths' robustness contract on
// arbitrary bytes: no panics, deterministic results, declared content size
// honored on success, the size limit enforced before allocation, and the
// streaming Reader agreeing with Decode — the same bytes wherever Decode
// succeeds, and no failure Decode does not share (the Reader may accept more:
// it stops at the last block, and bytes after a frame are not its business).
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'Z', 'S', 'L', '1'})
	f.Add(Encode(nil))
	f.Add(Encode([]byte("sequences of words, sequences of words")))
	f.Add(Encode(bytes.Repeat([]byte{0x42}, 1024)))
	chk, _ := NewEncoder(Params{Checksum: true})
	if chk != nil {
		f.Add(chk.Encode([]byte("checksummed frame checksummed frame")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		streamed, serr := io.ReadAll(NewReader(bytes.NewReader(data), nil))
		if err == nil && (serr != nil || !bytes.Equal(streamed, out)) {
			t.Fatalf("Decode gave %d bytes, the Reader %d (err %v)", len(out), len(streamed), serr)
		}
		if err != nil {
			return
		}
		if info, _, lerr := parseFrameHeader(data); lerr == nil && info.ContentSize >= 0 && len(out) != info.ContentSize {
			t.Fatalf("decoded %d bytes, frame declares %d", len(out), info.ContentSize)
		}
		out2, err2 := Decode(data)
		if err2 != nil || !bytes.Equal(out, out2) {
			t.Fatalf("non-deterministic decode: err2=%v", err2)
		}
		if limited, lerr := DecodeLimited(data, 64); lerr == nil && len(limited) > 64 {
			t.Fatalf("DecodeLimited(64) returned %d bytes", len(limited))
		}
	})
}
