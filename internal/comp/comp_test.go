package comp

import (
	"bytes"
	"testing"

	"cdpu/internal/corpus"
)

func TestAllAlgorithmsRoundTrip(t *testing.T) {
	data := corpus.Generate(corpus.Log, 96<<10, 61)
	for _, a := range Algorithms {
		t.Run(a.String(), func(t *testing.T) {
			enc, err := CompressCall(a, 0, 0, data)
			if err != nil {
				t.Fatalf("compress: %v", err)
			}
			got, err := DecompressCall(a, enc)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
		})
	}
}

func TestHeavyweightTaxonomy(t *testing.T) {
	want := map[Algorithm]bool{
		Snappy: false, ZStd: true, Flate: true,
		Brotli: true, Gipfeli: false, LZO: false,
	}
	for a, hw := range want {
		if a.Heavyweight() != hw {
			t.Errorf("%v heavyweight = %v", a, a.Heavyweight())
		}
	}
}

func TestHeavyweightBeatsLightweightRatio(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 256<<10, 62)
	sizes := map[Algorithm]int{}
	for _, a := range Algorithms {
		enc, err := CompressCall(a, 0, 0, data)
		if err != nil {
			t.Fatal(err)
		}
		sizes[a] = len(enc)
	}
	// ZStd must beat Snappy (Figure 2c: 1.46x better even at low level).
	if sizes[ZStd] >= sizes[Snappy] {
		t.Errorf("zstd %d >= snappy %d", sizes[ZStd], sizes[Snappy])
	}
	// Flate (32 KiB window) should be close to ZStd but not wildly better.
	if sizes[Flate] < sizes[ZStd]*90/100 {
		t.Errorf("flate %d much better than zstd %d", sizes[Flate], sizes[ZStd])
	}
}

func TestLevelsAffectZStd(t *testing.T) {
	data := corpus.Generate(corpus.Text, 256<<10, 63)
	low, err := CompressCall(ZStd, 1, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	high, err := CompressCall(ZStd, 19, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(high) >= len(low) {
		t.Errorf("level 19 (%d) no better than level 1 (%d)", len(high), len(low))
	}
}

func TestFlateClampsWindow(t *testing.T) {
	data := corpus.Generate(corpus.Text, 64<<10, 64)
	enc, err := CompressCall(Flate, 6, 25, data) // request absurd window
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressCall(Flate, enc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("flate round trip: %v", err)
	}
}

func TestStrings(t *testing.T) {
	if Snappy.String() != "Snappy" || ZStd.String() != "ZSTD" {
		t.Error("algorithm names")
	}
	if Compress.String() != "C" || Decompress.String() != "D" {
		t.Error("op names")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm name empty")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Algorithm
	}{
		{"snappy", Snappy}, {"zstd", ZStd}, {"flate", Flate},
		{"brotli", Brotli}, {"gipfeli", Gipfeli}, {"lzo", LZO},
		{"ZSTD", ZStd}, {"Snappy", Snappy},
	} {
		if got, err := ParseAlgorithm(tc.name); err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, a := range Algorithms {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	for _, name := range []string{"", "lz4", "Algorithm(99)", "snappy "} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", name)
		}
	}
}

func TestUnknownAlgorithmErrors(t *testing.T) {
	if _, err := CompressCall(Algorithm(99), 0, 0, []byte("x")); err == nil {
		t.Error("unknown compress accepted")
	}
	if _, err := DecompressCall(Algorithm(99), []byte("x")); err == nil {
		t.Error("unknown decompress accepted")
	}
}

func TestDefaultLevels(t *testing.T) {
	if ZStd.DefaultLevel() != 3 {
		t.Errorf("zstd default level = %d", ZStd.DefaultLevel())
	}
	if Snappy.DefaultLevel() != 0 {
		t.Errorf("snappy default level = %d", Snappy.DefaultLevel())
	}
}
