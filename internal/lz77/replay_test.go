package lz77

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cdpu/internal/corpus"
)

// canary fills the bytes of a replay buffer that Replay and CopyMatch may not
// write.
const canary = 0xC5

// replayInput is one Replay call: out[:len(hist)] holds hist, and the
// commands replay into out[len(hist):end].
type replayInput struct {
	hist   []byte
	seqs   []Seq
	lits   []byte
	window int
	end    int
}

// replayCase decodes a Replay input from arbitrary bytes: a history the
// copies may reach into (a dictionary prefix, or earlier blocks), a window,
// how far end lies from the bytes the commands cover, up to 32 commands, and
// the literal stream, which is whatever follows and may run short.
func replayCase(data []byte) replayInput {
	var in replayInput
	var head [4]byte
	data = data[copy(head[:], data):]
	in.hist = corpus.Generate(corpus.Text, int(head[0]%48), 3)
	if head[1] != 0 {
		in.window = int(head[1] % 64)
	}
	for n := int(head[3] % 32); n > 0 && len(data) >= 3; n-- {
		s := Seq{LitLen: int(data[0] % 40), Offset: int(data[1]), MatchLen: int(data[2])}
		if data[2] >= 200 { // a long copy: disjoint or overlapping by the offset
			s.MatchLen = int(data[2]-199) * 40
		}
		in.seqs = append(in.seqs, s)
		data = data[3:]
	}
	in.lits = data
	in.end = len(in.hist) + max(0, TotalLen(in.seqs)+int(head[2]%16)-8)
	return in
}

// replayOracle is what Replay must do, from AppendReconstruct one command at
// a time: the bytes it produces, or the sentinel of the first command that
// AppendReconstruct rejects or that runs past end.
func replayOracle(in replayInput) ([]byte, error) {
	out := append([]byte(nil), in.hist...)
	lp := 0
	for _, s := range in.seqs {
		var err error
		if out, err = AppendReconstruct(out, []Seq{s}, in.lits[lp:], in.window); err != nil {
			if errors.Is(err, ErrBadOffset) {
				return nil, ErrBadOffset
			}
			return nil, err
		}
		if len(out) > in.end {
			return nil, ErrOverrun
		}
		lp += s.LitLen
	}
	return out, nil
}

// checkReplay holds Replay to the oracle on one input, in a buffer sliced to
// exactly end+Slack out of a larger canary-filled one: the same verdict, the
// same bytes, the history untouched, and every byte outside out[d:end+Slack]
// still the canary. It returns the verdict.
func checkReplay(t *testing.T, in replayInput) error {
	t.Helper()
	hist, seqs, lits, window, end := in.hist, in.seqs, in.lits, in.window, in.end
	want, werr := replayOracle(in)
	const pad = 24
	buf := bytes.Repeat([]byte{canary}, pad+end+Slack+pad)
	out := buf[pad : pad+end+Slack]
	d := copy(out, hist)
	n, err := Replay(out, d, end, seqs, lits, window)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("Replay err %v, oracle err %v (seqs %v, %d literals, window %d, end %d)", err, werr, seqs, len(lits), window, end)
	case err != nil && !errors.Is(err, werr):
		t.Fatalf("Replay err %v, oracle err %v (seqs %v)", err, werr, seqs)
	case err == nil && (n != len(want) || !bytes.Equal(out[:n], want)):
		t.Fatalf("Replay produced %d bytes, oracle %d (seqs %v): bytes differ", n, len(want), seqs)
	case !bytes.Equal(out[:d], hist):
		t.Fatalf("Replay wrote into the history (seqs %v)", seqs)
	}
	for i, b := range buf {
		if (i < pad || i >= pad+end+Slack) && b != canary {
			t.Fatalf("Replay wrote byte %d of the buffer, outside out[d:end+Slack] (seqs %v)", i-pad, seqs)
		}
	}
	return err
}

// TestReplayMatchesAppendReconstruct holds Replay to AppendReconstruct on
// each check it keeps and the one it adds, at the boundaries of its fast
// paths, and on random command streams.
func TestReplayMatchesAppendReconstruct(t *testing.T) {
	lits := corpus.Generate(corpus.Text, 200, 5)
	hist := []byte("0123456789abcdefghijklmnopqrstuv")
	cases := []struct {
		name   string
		hist   []byte
		seqs   []Seq
		lits   []byte
		window int
		end    int // added to the bytes the commands cover
	}{
		{name: "empty", lits: lits},
		{name: "literals only", seqs: []Seq{{LitLen: 16}, {LitLen: 17}, {LitLen: 1}}, lits: lits},
		{name: "literals short", seqs: []Seq{{LitLen: 10}}, lits: lits[:9]},
		{name: "literal behind fewer than 16 bytes", seqs: []Seq{{LitLen: 5}}, lits: lits[:5]},
		{name: "offset zero", seqs: []Seq{{LitLen: 4, MatchLen: 3}}, lits: lits},
		{name: "offset past produced", seqs: []Seq{{LitLen: 4, Offset: 5, MatchLen: 3}}, lits: lits},
		{name: "offset into history", hist: hist, seqs: []Seq{{LitLen: 2, Offset: 34, MatchLen: 40}}, lits: lits},
		{name: "offset past window", seqs: []Seq{{LitLen: 8, Offset: 8, MatchLen: 3}}, lits: lits, window: 4},
		{name: "offset at window", seqs: []Seq{{LitLen: 8, Offset: 4, MatchLen: 3}}, lits: lits, window: 4},
		{name: "exact end", seqs: []Seq{{LitLen: 20, Offset: 20, MatchLen: 16}}, lits: lits},
		{name: "end short by one", seqs: []Seq{{LitLen: 20, Offset: 20, MatchLen: 16}}, lits: lits, end: -1},
		{name: "literal past end", seqs: []Seq{{LitLen: 20}}, lits: lits, end: -5},
		{name: "end past the commands", seqs: []Seq{{LitLen: 3, Offset: 1, MatchLen: 50}}, lits: lits, end: 7},
		{name: "rle", seqs: []Seq{{LitLen: 1, Offset: 1, MatchLen: 1000}}, lits: lits},
		{name: "period 7 long", seqs: []Seq{{LitLen: 7, Offset: 7, MatchLen: 300}}, lits: lits},
		{name: "period 9", seqs: []Seq{{LitLen: 9, Offset: 9, MatchLen: 100}}, lits: lits},
		{name: "period 17 overlapping", seqs: []Seq{{LitLen: 17, Offset: 17, MatchLen: 100}}, lits: lits},
		{name: "long disjoint", seqs: []Seq{{LitLen: 150, Offset: 150, MatchLen: 120}}, lits: lits},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			end := len(c.hist) + TotalLen(c.seqs) + c.end
			checkReplay(t, replayInput{c.hist, c.seqs, c.lits, c.window, end})
		})
	}
	rng := rand.New(rand.NewSource(30))
	verdicts := map[error]int{}
	for i := 0; i < 3000; i++ {
		data := make([]byte, 4+rng.Intn(200))
		rng.Read(data)
		err := checkReplay(t, replayCase(data))
		for _, s := range []error{ErrBadLiterals, ErrBadOffset, ErrOverrun} {
			if errors.Is(err, s) {
				err = s
			}
		}
		verdicts[err]++
	}
	for _, v := range []error{nil, ErrBadLiterals, ErrBadOffset, ErrOverrun} {
		if verdicts[v] == 0 {
			t.Errorf("no random command stream got verdict %v: %v", v, verdicts)
		}
	}
}

// FuzzReplayMatchesAppendReconstruct is TestReplayMatchesAppendReconstruct on
// command streams, literals, windows, histories and ends decoded from
// arbitrary bytes.
func FuzzReplayMatchesAppendReconstruct(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 8, 2, 5, 0, 0, 3, 5, 12, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'})
	f.Add([]byte{40, 0, 8, 1, 2, 40, 210, 'x', 'y'})
	f.Add([]byte{0, 9, 3, 3, 16, 16, 20, 1, 1, 250, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, replayCase(data))
	})
}

// TestCopyMatchMatchesAppendCopy holds CopyMatch to AppendCopy at every
// offset below and around its move widths and one past a 4 KiB page, for
// every length up to 300, in a buffer sized to exactly the copy plus Slack
// inside a canary-filled one.
func TestCopyMatchMatchesAppendCopy(t *testing.T) {
	base := corpus.Generate(corpus.Random, 5000, 12)
	offsets := []int{4097}
	for o := 1; o <= 40; o++ {
		offsets = append(offsets, o)
	}
	const pad = 24
	for _, offset := range offsets {
		for n := 0; n <= 300; n++ {
			want := AppendCopy(append([]byte(nil), base...), offset, n)
			buf := bytes.Repeat([]byte{canary}, len(base)+n+Slack+pad)
			out := buf[:len(base)+n+Slack]
			copy(out, base)
			CopyMatch(out, len(base), offset, n)
			if !bytes.Equal(out[:len(want)], want) {
				t.Fatalf("CopyMatch(offset %d, n %d) differs from AppendCopy", offset, n)
			}
			for i := len(out); i < len(buf); i++ {
				if buf[i] != canary {
					t.Fatalf("CopyMatch(offset %d, n %d) wrote byte %d, past the copy's slack", offset, n, i-len(base))
				}
			}
		}
	}
}
