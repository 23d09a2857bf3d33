package lz77

import (
	"bytes"
	"testing"

	"cdpu/internal/corpus"
)

func TestParsePrefixedRoundTrip(t *testing.T) {
	dict := corpus.Generate(corpus.Text, 16<<10, 1)
	block := corpus.Generate(corpus.Text, 32<<10, 2)
	data := append(append([]byte{}, dict...), block...)
	m := mustMatcher(t, defaultConfig())
	seqs := m.ParsePrefixed(data, len(dict))
	if TotalLen(seqs) != len(block) {
		t.Fatalf("sequences cover %d of %d block bytes", TotalLen(seqs), len(block))
	}
	lits := AppendLiteralsAt(nil, data, len(dict), seqs)
	out, err := AppendReconstruct(append([]byte{}, dict...), seqs, lits, m.cfg.WindowSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[len(dict):], block) {
		t.Fatal("prefixed round trip mismatch")
	}
	if end, err := VerifySeqs(data, len(dict), seqs, m.cfg.WindowSize); err != nil || end != len(data) {
		t.Fatalf("VerifySeqs from the dictionary's end: end %d of %d, %v", end, len(data), err)
	}
}

func TestParsePrefixedUsesDictionary(t *testing.T) {
	// A block that is an exact repeat of the dictionary must compress to
	// almost nothing when the dictionary is supplied.
	dict := corpus.Generate(corpus.Random, 8<<10, 3)
	data := append(append([]byte{}, dict...), dict...)
	m := mustMatcher(t, defaultConfig())

	m.ResetStats()
	withDict := m.ParsePrefixed(data, len(dict))
	matchBytes := m.Stats().MatchBytes
	// Check offsets before the next Parse call: the Matcher owns and reuses
	// the returned slice.
	for _, s := range withDict {
		if s.Offset > m.cfg.WindowSize {
			t.Fatalf("offset %d beyond window", s.Offset)
		}
	}

	m.ResetStats()
	m.Parse(dict) // same block without context
	noDict := m.Stats().MatchBytes

	if matchBytes < len(dict)*9/10 {
		t.Errorf("dictionary matching found only %d of %d bytes", matchBytes, len(dict))
	}
	if noDict > len(dict)/10 {
		t.Errorf("random block matched %d bytes without context", noDict)
	}
}

func TestParsePrefixedEmptyBlock(t *testing.T) {
	dict := []byte("some dictionary")
	m := mustMatcher(t, defaultConfig())
	seqs := m.ParsePrefixed(dict, len(dict))
	if len(seqs) != 0 {
		t.Fatalf("empty block produced %d sequences", len(seqs))
	}
}

func TestParsePrefixedTinyBlock(t *testing.T) {
	dict := bytes.Repeat([]byte("ab"), 100)
	data := append(append([]byte{}, dict...), 'x', 'y')
	m := mustMatcher(t, defaultConfig())
	seqs := m.ParsePrefixed(data, len(dict))
	if TotalLen(seqs) != 2 {
		t.Fatalf("tiny block coverage %d", TotalLen(seqs))
	}
}

func TestParsePrefixedWindowLimitsPrefixReach(t *testing.T) {
	cfg := defaultConfig()
	cfg.WindowSize = 4 << 10
	m := mustMatcher(t, cfg)
	// Redundancy sits 8 KiB back — beyond the window — so no matches.
	block := corpus.Generate(corpus.Random, 4<<10, 4)
	pad := corpus.Generate(corpus.Zeros, 4<<10, 0)
	data := append(append(append([]byte{}, block...), pad...), block...)
	m.ResetStats()
	m.ParsePrefixed(data, 8<<10)
	if mb := m.Stats().MaxOffset; mb > cfg.WindowSize {
		t.Fatalf("offset %d escaped the window", mb)
	}
}

func TestParsePrefixedPanicsOnBadStart(t *testing.T) {
	m := mustMatcher(t, defaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range start")
		}
	}()
	m.ParsePrefixed([]byte("abc"), 5)
}

func TestAppendReconstructIntoExistingOutput(t *testing.T) {
	prefix := []byte("0123456789")
	// Copy 4 bytes from offset 10 (the prefix start).
	out, err := AppendReconstruct(append([]byte{}, prefix...),
		[]Seq{{LitLen: 0, Offset: 10, MatchLen: 4}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "01234567890123" {
		t.Fatalf("got %q", out)
	}
}
