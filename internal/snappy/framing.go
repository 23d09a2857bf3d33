package snappy

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// This file implements Snappy's framing format (framing_format.txt in the
// reference repository): the streaming equivalent of the block format, which
// the paper notes has been the stable user API for decades (§3.4). A stream
// is a sequence of chunks — a stream identifier, then compressed or
// uncompressed data chunks of at most 64 KiB uncompressed, each carrying a
// masked CRC-32C of its uncompressed bytes.

// Framing chunk types.
const (
	chunkCompressed   = 0x00
	chunkUncompressed = 0x01
	chunkPadding      = 0xfe
	chunkStreamID     = 0xff
)

// streamID is the mandatory leading chunk body.
var streamID = []byte("sNaPpY")

// MaxFrameUncompressed is the maximum uncompressed payload per data chunk.
const MaxFrameUncompressed = 65536

// ErrFraming is returned for malformed framed streams.
var ErrFraming = errors.New("snappy: malformed framed stream")

// ErrChecksum is returned when a chunk's CRC does not match its contents.
var ErrChecksum = errors.New("snappy: framed chunk checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maskedCRC implements the framing format's CRC masking, which guards
// against streams that contain embedded CRCs of their own data.
func maskedCRC(b []byte) uint32 {
	c := crc32.Checksum(b, castagnoli)
	return (c>>15 | c<<17) + 0xa282ead8
}

// FrameWriter compresses a stream into the Snappy framing format. Close
// flushes nothing (every Write emits whole chunks) but is provided for
// io.WriteCloser compatibility.
type FrameWriter struct {
	w   io.Writer
	enc *Encoder
	// started records whether the stream identifier has been emitted.
	started bool
	err     error
}

// NewFrameWriter returns a FrameWriter emitting to w using default encoder
// parameters.
func NewFrameWriter(w io.Writer) *FrameWriter {
	enc, err := NewEncoder(EncoderConfig{})
	if err != nil {
		panic(err) // defaults are always valid
	}
	return &FrameWriter{w: w, enc: enc}
}

// Write compresses p into one or more data chunks.
func (f *FrameWriter) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if !f.started {
		hdr := []byte{chunkStreamID, byte(len(streamID)), 0, 0}
		if _, err := f.w.Write(append(hdr, streamID...)); err != nil {
			f.err = err
			return 0, err
		}
		f.started = true
	}
	written := 0
	for len(p) > 0 {
		n := len(p)
		if n > MaxFrameUncompressed {
			n = MaxFrameUncompressed
		}
		if err := f.writeChunk(p[:n]); err != nil {
			f.err = err
			return written, err
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

func (f *FrameWriter) writeChunk(raw []byte) error {
	crc := maskedCRC(raw)
	comp := f.enc.Encode(raw)
	ctype := byte(chunkCompressed)
	body := comp
	// The format mandates falling back to an uncompressed chunk when
	// compression does not help.
	if len(comp) >= len(raw) {
		ctype = chunkUncompressed
		body = raw
	}
	length := len(body) + 4
	hdr := []byte{
		ctype, byte(length), byte(length >> 8), byte(length >> 16),
		byte(crc), byte(crc >> 8), byte(crc >> 16), byte(crc >> 24),
	}
	if _, err := f.w.Write(hdr); err != nil {
		return err
	}
	_, err := f.w.Write(body)
	return err
}

// Close implements io.Closer; it emits the stream identifier if nothing was
// ever written, so an empty stream is still well-formed.
func (f *FrameWriter) Close() error {
	if f.err != nil {
		return f.err
	}
	if !f.started {
		hdr := []byte{chunkStreamID, byte(len(streamID)), 0, 0}
		if _, err := f.w.Write(append(hdr, streamID...)); err != nil {
			f.err = err
			return err
		}
		f.started = true
	}
	return nil
}

// FrameReader decompresses a Snappy framed stream.
type FrameReader struct {
	r io.Reader
	// buf holds decoded bytes not yet delivered.
	buf  []byte
	off  int
	err  error
	seen bool // stream identifier consumed
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read implements io.Reader.
func (f *FrameReader) Read(p []byte) (int, error) {
	for f.off == len(f.buf) {
		if f.err != nil {
			return 0, f.err
		}
		f.fill()
	}
	n := copy(p, f.buf[f.off:])
	f.off += n
	return n, nil
}

// fill decodes the next data chunk into buf.
func (f *FrameReader) fill() {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(f.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: truncated chunk header", ErrFraming)
		}
		f.err = err
		return
	}
	ctype := hdr[0]
	length := int(hdr[1]) | int(hdr[2])<<8 | int(hdr[3])<<16
	if !f.seen {
		if ctype != chunkStreamID || length != len(streamID) {
			f.err = fmt.Errorf("%w: missing stream identifier", ErrFraming)
			return
		}
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(f.r, body); err != nil {
		f.err = fmt.Errorf("%w: truncated chunk body", ErrFraming)
		return
	}
	switch ctype {
	case chunkStreamID:
		if string(body) != string(streamID) {
			f.err = fmt.Errorf("%w: bad stream identifier", ErrFraming)
			return
		}
		f.seen = true
	case chunkCompressed, chunkUncompressed:
		if !f.seen {
			f.err = fmt.Errorf("%w: data before stream identifier", ErrFraming)
			return
		}
		if length < 4 {
			f.err = fmt.Errorf("%w: chunk too short for checksum", ErrFraming)
			return
		}
		crc := uint32(body[0]) | uint32(body[1])<<8 | uint32(body[2])<<16 | uint32(body[3])<<24
		var raw []byte
		if ctype == chunkCompressed {
			// The chunk limit goes in with the block, so a block header that
			// declares more is refused before anything is reserved for it.
			var err error
			raw, err = DecodeLimited(body[4:], MaxFrameUncompressed)
			if err != nil {
				f.err = err
				return
			}
		} else {
			raw = body[4:]
		}
		if len(raw) > MaxFrameUncompressed {
			f.err = fmt.Errorf("%w: oversized chunk (%d bytes)", ErrFraming, len(raw))
			return
		}
		if maskedCRC(raw) != crc {
			f.err = ErrChecksum
			return
		}
		f.buf = raw
		f.off = 0
	case chunkPadding:
		// skip
	default:
		if ctype >= 0x80 && ctype <= 0xfd {
			// Reserved skippable chunk.
			return
		}
		f.err = fmt.Errorf("%w: reserved unskippable chunk %#02x", ErrFraming, ctype)
	}
}
