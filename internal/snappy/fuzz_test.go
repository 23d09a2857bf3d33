package snappy

import (
	"bytes"
	"testing"

	"cdpu/internal/lz77"
)

// FuzzDecompress asserts the decode paths' robustness contract on arbitrary
// bytes: no panics (the fuzzer catches those), deterministic results, output
// exactly matching the declared header length on success, the size limit
// honored before allocation, and the package's two decoders — Decode, and the
// command-stream decoder the CDPU model replays (AppendDecodeSeqs, then
// lz77.AppendReconstruct) — agreeing on what they accept and what it decodes
// to.
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(Encode(nil))
	f.Add(Encode([]byte("hello hello hello hello")))
	f.Add(Encode(bytes.Repeat([]byte{0xAA}, 512)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}) // forged huge length
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		seqs, lits, _, serr := AppendDecodeSeqs(nil, nil, data)
		var replayed []byte
		if serr == nil {
			replayed, serr = lz77.AppendReconstruct(nil, seqs, lits, 0)
		}
		if (err == nil) != (serr == nil) || !bytes.Equal(out, replayed) {
			t.Fatalf("decoders disagree: Decode %d bytes, err %v; command stream %d bytes, err %v", len(out), err, len(replayed), serr)
		}
		if err != nil {
			return
		}
		n, _, lerr := decodeHeader(data)
		if lerr != nil || len(out) != n {
			t.Fatalf("decoded %d bytes, header says %d (err %v)", len(out), n, lerr)
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
