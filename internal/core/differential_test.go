package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	ibits "cdpu/internal/bits"
	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// TestDifferentialHardwareSoftware cross-checks randomly-configured hardware
// instances against the software codecs on randomly-shaped data: every
// hardware compressor's output must decode identically in software, and
// every hardware decompressor must reproduce software-compressed payloads,
// for any legal parameter point of the generator.
func TestDifferentialHardwareSoftware(t *testing.T) {
	f := func(seed int64, algoSel, placeSel, sramSel, htSel, assocSel, hashSel, specSel uint8, sizeSel uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		algo := []comp.Algorithm{comp.Snappy, comp.ZStd}[int(algoSel)%2]
		cfg := Config{
			Algo:              algo,
			Placement:         memsys.Placements[int(placeSel)%len(memsys.Placements)],
			HistorySRAM:       1 << (10 + int(sramSel)%7), // 1K..64K
			HashTableEntries:  1 << (8 + int(htSel)%8),    // 2^8..2^15
			HashAssociativity: []int{1, 2, 4}[int(assocSel)%3],
			HashFunc:          []lz77.HashFunc{lz77.HashFibonacci, lz77.HashXorShift}[int(hashSel)%2],
			Speculation:       []int{4, 16, 32}[int(specSel)%3],
		}
		// Random compressible-ish data.
		size := int(sizeSel)%50000 + 1
		data := make([]byte, size)
		unit := 1 + rng.Intn(300)
		for i := range data {
			if i >= unit && rng.Intn(4) > 0 {
				data[i] = data[i-unit]
			} else {
				data[i] = byte(rng.Intn(256))
			}
		}

		c, err := NewCompressor(cfg)
		if err != nil {
			return false
		}
		cres, err := c.Compress(data)
		if err != nil {
			return false
		}
		swOut, err := comp.DecompressCall(algo, cres.Output)
		if err != nil || !bytes.Equal(swOut, data) {
			return false
		}

		swEnc, err := comp.CompressCall(algo, 0, 0, data)
		if err != nil {
			return false
		}
		d, err := NewDecompressor(cfg)
		if err != nil {
			return false
		}
		dres, err := d.Decompress(swEnc)
		if err != nil || !bytes.Equal(dres.Output, data) {
			return false
		}
		// Timing sanity at every point: positive cycles, positive area.
		return cres.Cycles > 0 && dres.Cycles > 0 && c.Area().Total() > 0 && d.Area().Total() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecompressMatchesCodec offers arbitrary bytes to Decompress as a Snappy
// and as a ZStd frame, on units with a 2 KiB and a 64 KiB history SRAM, each
// with and without a fault injector, each with a traced twin. A frame that
// declares more than 1 MiB is skipped. Without an injector Decompress must
// accept exactly the frames the software decoder accepts, with its bytes. With
// or without one, the untraced unit (charged from the fold) and its traced
// twin (the per-command walk) must return the same verdict, and Trace then
// Time must return exactly what Decompress does.
func FuzzDecompressMatchesCodec(f *testing.F) {
	algos := []comp.Algorithm{comp.Snappy, comp.ZStd}
	for _, file := range corpus.SmallSuite() {
		for _, algo := range algos {
			// 4 KiB of each file: copies past the small SRAM, in frames
			// short enough for the fuzzer to mutate and minimize quickly.
			frame, err := comp.CompressCall(algo, 0, 0, file.Data[:4<<10])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	type twin struct {
		plain, traced *Decompressor
		healthy       bool // no fault injector
	}
	unit := func(cfg Config, fi memsys.FaultInjector, tracing bool) *Decompressor {
		d, err := NewDecompressor(cfg)
		if err != nil {
			f.Fatal(err)
		}
		d.SetFaultInjector(fi)
		d.SetTracing(tracing)
		return d
	}
	units := map[comp.Algorithm][]twin{}
	for _, algo := range algos {
		for _, sram := range []int{2 << 10, 64 << 10} {
			for _, fi := range []memsys.FaultInjector{nil, foldFaults(29)} {
				cfg := Config{Algo: algo, HistorySRAM: sram}
				units[algo] = append(units[algo], twin{unit(cfg, fi, false), unit(cfg, fi, true), fi == nil})
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, algo := range algos {
			var want []byte
			var werr error
			if algo == comp.Snappy {
				if n, _, err := ibits.Uvarint(frame); err == nil && n > 1<<20 {
					continue
				}
				want, werr = snappy.Decode(frame)
			} else {
				if info, err := zstdlite.Inspect(frame); err == nil {
					declared := 0
					for _, b := range info.Blocks {
						declared += b.RawSize
					}
					if declared > 1<<20 || info.ContentSize > 1<<20 {
						continue
					}
				}
				want, werr = zstdlite.Decode(frame)
			}
			for _, u := range units[algo] {
				name := u.plain.cfg.Name()
				res, err := u.plain.Decompress(frame)
				if u.healthy {
					if (err == nil) != (werr == nil) || err == nil && !bytes.Equal(res.Output, want) {
						t.Fatalf("%s: Decompress returns %v, the software decoder %v", name, err, werr)
					}
				}
				got := outcomeWithOutput(res, err)
				var timed string
				if tr, err := u.plain.Trace(frame); err != nil {
					timed = outcomeWithOutput(nil, err)
				} else {
					timed = outcomeWithOutput(u.plain.Time(tr))
				}
				if timed != got {
					t.Fatalf("%s: Trace then Time %s Decompress %s", name, timed, got)
				}
				walk, err := u.traced.Decompress(frame)
				if walk != nil {
					walk.Spans = nil
				}
				if walked := outcomeWithOutput(walk, err); walked != got {
					t.Fatalf("%s: the fold %s the traced walk %s", name, got, walked)
				}
			}
		}
	})
}

// outcomeWithOutput is outcome with a digest of the produced bytes.
func outcomeWithOutput(res *Result, err error) string {
	var sb strings.Builder
	renderOutcome(&sb, res, err, true)
	return sb.String()
}
