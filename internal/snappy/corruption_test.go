package snappy

import (
	"bytes"
	"io"
	"testing"

	"cdpu/internal/corpus"
	"cdpu/internal/testutil"
)

func TestBlockDecoderCorruptionRobustness(t *testing.T) {
	for _, f := range corpus.SmallSuite() {
		data := f.Data[:16<<10]
		testutil.CheckCorruptionRobustness(t, "snappy/"+f.Name, Encode(data), Decode, 200, 1)
	}
}

func TestBlockDecoderTruncationRobustness(t *testing.T) {
	data := corpus.Generate(corpus.Text, 32<<10, 2)
	testutil.CheckTruncationRobustness(t, "snappy", data, Encode(data), Decode)
}

func TestSeqDecoderCorruptionRobustness(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 16<<10, 3)
	decode := func(enc []byte) ([]byte, error) {
		_, lits, _, err := AppendDecodeSeqs(nil, nil, enc)
		return lits, err
	}
	testutil.CheckCorruptionRobustness(t, "snappy-seqs", Encode(data), decode, 300, 4)
}

func TestFrameDecoderCorruptionRobustness(t *testing.T) {
	data := corpus.Generate(corpus.Log, 48<<10, 5)
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	_, _ = w.Write(data)
	_ = w.Close()
	decode := func(enc []byte) ([]byte, error) {
		return io.ReadAll(NewFrameReader(bytes.NewReader(enc)))
	}
	testutil.CheckCorruptionRobustness(t, "snappy-frame", buf.Bytes(), decode, 300, 6)
	testutil.CheckTruncationRobustness(t, "snappy-frame", data, buf.Bytes(), decode)
}
