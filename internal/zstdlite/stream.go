package zstdlite

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file implements the streaming form of the format — the paper notes
// the (de)compression user API has always been "a stateless, buffer-in,
// buffer-out API ... and a streaming equivalent" (§3.4). A streaming frame
// sets the unknown-size flag; the writer emits one block per MaxBlockSize of
// input, parsing each block against a retained window of already-written
// history so cross-block matches survive streaming.

// streamHistoryCap bounds how much history the writer retains for match
// context (the window may be larger, but the retained tail dominates the
// benefit at a fraction of the memory).
const streamHistoryCap = 256 << 10

// Writer is a streaming zstdlite compressor. Data written is buffered into
// MaxBlockSize blocks; Close flushes the remainder and terminates the frame.
type Writer struct {
	w       io.Writer
	enc     *Encoder
	history []byte // window context: dictionary tail, then emitted payload
	buf     []byte // pending input, < MaxBlockSize
	hash    checksumState
	started bool
	closed  bool
	err     error
}

// NewWriter returns a streaming compressor with the given parameters
// (Params zero value = defaults; Params.Dict is honored).
func NewWriter(w io.Writer, p Params) (*Writer, error) {
	enc, err := NewEncoder(p)
	if err != nil {
		return nil, err
	}
	sw := &Writer{w: w, enc: enc, hash: newChecksum()}
	sw.history = append(sw.history, enc.usableDict()...)
	if len(sw.history) > streamHistoryCap {
		sw.history = sw.history[len(sw.history)-streamHistoryCap:]
	}
	return sw, nil
}

// Write buffers p, emitting full blocks as they accumulate.
func (sw *Writer) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	if sw.closed {
		return 0, fmt.Errorf("zstdlite: write after Close")
	}
	sw.buf = append(sw.buf, p...)
	for len(sw.buf) >= MaxBlockSize {
		if err := sw.emitBlock(sw.buf[:MaxBlockSize], false); err != nil {
			return 0, err
		}
		sw.buf = sw.buf[MaxBlockSize:]
	}
	return len(p), nil
}

// Close flushes buffered data as the final block and terminates the frame.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.emitBlock(sw.buf, true); err != nil {
		return err
	}
	sw.buf = nil
	return nil
}

func (sw *Writer) emitBlock(block []byte, last bool) error {
	var out []byte
	if !sw.started {
		out = sw.enc.appendFrameHeader(out, -1)
		sw.started = true
	}
	// Parse the block against the retained history.
	data := make([]byte, 0, len(sw.history)+len(block))
	data = append(append(data, sw.history...), block...)
	seqs := sw.enc.matcher.ParsePrefixed(data, len(sw.history))
	var info BlockInfo // a stream keeps no record of its blocks
	out = sw.enc.encodeBlock(out, &info, block, seqs, last)
	sw.hash.update(block)
	if last && sw.enc.params.Checksum {
		out = binary.LittleEndian.AppendUint32(out, sw.hash.sum32())
	}
	if _, err := sw.w.Write(out); err != nil {
		sw.err = err
		return err
	}
	sw.history = append(sw.history, block...)
	if len(sw.history) > streamHistoryCap {
		sw.history = sw.history[len(sw.history)-streamHistoryCap:]
	}
	return nil
}

// Reader is a streaming zstdlite decompressor: the frame parsers and the
// block executor of decode.go, driven a block at a time, retaining a window
// of produced output for cross-block copies.
type Reader struct {
	r    io.Reader
	dict []byte
	in   []byte // wire bytes of the structure being read: header, block or trailer
	// out holds window history plus undelivered bytes; off is the delivery
	// cursor.
	out      []byte
	off      int
	info     FrameInfo // the header, once started
	produced int       // bytes the blocks so far have declared
	hash     checksumState
	started  bool
	last     bool
	err      error
}

// NewReader returns a streaming decompressor. dict may be nil for frames
// that do not require one.
func NewReader(r io.Reader, dict []byte) *Reader {
	return &Reader{r: r, dict: dict, hash: newChecksum()}
}

// Read implements io.Reader.
func (sr *Reader) Read(p []byte) (int, error) {
	for sr.off == len(sr.out) {
		if sr.err == nil && sr.last {
			sr.err = io.EOF
		}
		if sr.err != nil {
			return 0, sr.err
		}
		sr.err = sr.advance()
	}
	n := copy(p, sr.out[sr.off:])
	sr.off += n
	return n, nil
}

// read pulls one structure off the stream into sr.in for parse, reading only
// as many bytes as parse says the structure still needs: never past its end,
// and never more than the parsers' bounds allow a header to ask for.
func (sr *Reader) read(parse func([]byte) (int, error)) error {
	sr.in = sr.in[:0]
	for {
		need, err := parse(sr.in)
		if err != errShort {
			return err
		}
		have := len(sr.in)
		sr.in = append(sr.in, make([]byte, need-have)...)
		if _, err := io.ReadFull(sr.r, sr.in[have:]); err != nil {
			return fmt.Errorf("%w (%v)", errShort, err)
		}
	}
}

// advance decodes the next block into out.
func (sr *Reader) advance() error {
	if !sr.started {
		err := sr.read(func(b []byte) (n int, err error) {
			sr.info, n, err = parseFrameHeader(b)
			return n, err
		})
		if err != nil {
			return err
		}
		hist, err := sr.info.history(sr.dict)
		if err != nil {
			return err
		}
		sr.out = append(sr.out, hist...)
		sr.off = len(sr.out)
		sr.started = true
	}
	var block BlockInfo
	err := sr.read(func(b []byte) (n int, err error) {
		n, sr.last, err = parseBlock(b, &block)
		return n, err
	})
	if err != nil {
		return err
	}
	sr.produced += block.RawSize
	if err := sr.info.checkSize(sr.produced, math.MaxInt, sr.last); err != nil {
		return err
	}
	sr.trimWindow()
	before := len(sr.out)
	out, err := block.appendTo(sr.out, 1<<sr.info.WindowLog)
	if err != nil {
		return err
	}
	sr.out = out
	if !sr.info.HasChecksum {
		return nil
	}
	sr.hash.update(out[before:])
	if !sr.last {
		return nil
	}
	if err := sr.read(sr.info.parseTrailer); err != nil {
		return err
	}
	return sr.info.checkSum(sr.hash.sum32())
}

// trimWindow drops delivered bytes beyond the window so memory stays
// bounded on long streams. The full window must be retained: fixed-size
// frames may carry offsets up to 2^windowLog even when the producer was not
// streaming.
func (sr *Reader) trimWindow() {
	if window := 1 << sr.info.WindowLog; sr.off > window {
		drop := sr.off - window
		sr.out = append(sr.out[:0], sr.out[drop:]...)
		sr.off -= drop
	}
}
