package comp

import (
	"bytes"
	"reflect"
	"testing"

	"cdpu/internal/zstdlite"
)

// FuzzCoderMatchesFresh drives one reused Coder through a sequence of
// compressions of one payload, four bytes of ops each: the algorithm, the
// level (−7..22), the window log (0, the default, or 10..27) and how much of
// the payload to take. Each is followed by the same algorithm at another level
// of the same table shape and another window, so two levels and two windows
// of one shape always meet back to back on one encoder. Every frame must equal
// a fresh Coder's, byte for byte, error for error, and every size-only frame
// must have a fresh Coder's size-only length and Plan.
func FuzzCoderMatchesFresh(f *testing.F) {
	text := bytes.Repeat([]byte("one encoder per table shape, the window set per frame; "), 40)
	f.Add([]byte{1, 10, 0, 255, 1, 8, 7, 128}, text)
	f.Add([]byte{0, 0, 0, 255, 2, 9, 5, 255, 3, 9, 18, 255, 4, 0, 0, 255, 5, 8, 0, 255}, text)
	f.Add([]byte{1, 26, 18, 255, 1, 4, 1, 64, 1, 17, 10, 200}, append(text, text[:700]...))
	f.Fuzz(func(t *testing.T, ops, payload []byte) {
		payload = payload[:min(len(payload), 64<<10)]
		c := NewCoder()
		for step := 0; len(ops) >= 4 && step < 6; step, ops = step+1, ops[4:] {
			a := Algorithms[int(ops[0])%len(Algorithms)]
			level := int(ops[1])%(zstdlite.MaxLevel-zstdlite.MinLevel+1) + zstdlite.MinLevel
			w := 0
			if r := int(ops[2]) % (zstdlite.MaxWindowLog - zstdlite.MinWindowLog + 2); r > 0 {
				w = zstdlite.MinWindowLog - 1 + r
			}
			src := payload[:int(ops[3])*len(payload)/255]
			checkAgainstFresh(t, c, call{a, level, w}, src)
			checkAgainstFresh(t, c, call{a, sameShapeLevel(level), zstdlite.MinWindowLog + (w+3)%18}, src)
		}
	})
}

// sameShapeLevel is the next level after level, wrapping, of its table shape.
func sameShapeLevel(level int) int {
	for l := level + 1; ; l++ {
		if l > zstdlite.MaxLevel {
			l = zstdlite.MinLevel
		}
		if l != level && zstdlite.Shape(l) == zstdlite.Shape(level) {
			return l
		}
	}
}

// checkAgainstFresh compresses src through the reused Coder c, in full and
// size-only, and through a fresh Coder each time.
func checkAgainstFresh(t *testing.T, c *Coder, k call, src []byte) {
	t.Helper()
	want, wantErr := new(Coder).AppendCompress(nil, k.algo, k.level, k.windowLog, src)
	got, err := c.AppendCompress(nil, k.algo, k.level, k.windowLog, src)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("%+v: reused Coder wrote %d bytes (%v), a fresh one %d (%v)", k, len(got), err, len(want), wantErr)
	}
	if err != nil {
		return
	}
	wantSize, wantPlan, _ := new(Coder).AppendCompressSizeOnly(nil, k.algo, k.level, k.windowLog, src)
	wantPlan = snapshotPlan(wantPlan)
	gotSize, gotPlan, err := c.AppendCompressSizeOnly(nil, k.algo, k.level, k.windowLog, src)
	if err != nil || len(gotSize) != len(wantSize) || len(gotSize) != len(want) ||
		!reflect.DeepEqual(snapshotPlan(gotPlan), wantPlan) {
		t.Fatalf("%+v: reused size-only frame %d bytes (%v), fresh %d, full %d, or a different Plan", k, len(gotSize), err, len(wantSize), len(want))
	}
}
