// Package corpus generates deterministic synthetic test data spanning the
// compressibility range of the open-source corpora the paper uses (Silesia,
// Canterbury, Calgary, SnappyFiles). Those corpora are not redistributable
// inside this offline repository, so each Kind synthesizes data with the
// statistical texture of one corpus family: natural text, server logs,
// structured JSON, serialized protobuf-like records, columnar binary tables,
// and incompressible noise. HyperCompressBench's generator (internal/hcbench)
// only requires a chunk pool that spans a wide range of achieved compression
// ratios, which these generators provide.
package corpus

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"

	"cdpu/internal/par"
)

// Kind identifies a synthetic data family.
type Kind int

const (
	// Text resembles natural-language prose: a Markov chain over a fixed
	// vocabulary with punctuation and paragraph structure.
	Text Kind = iota
	// Log resembles datacenter server logs: timestamped lines with heavily
	// repeated field names and a long tail of identifiers.
	Log
	// JSON resembles structured API payloads: nested objects with a small
	// key vocabulary and mixed value entropy.
	JSON
	// Protobuf resembles serialized protocol buffers: tag/varint framing
	// with short embedded strings and numeric fields.
	Protobuf
	// Table resembles columnar binary tables: fixed-width records where most
	// columns are low-entropy.
	Table
	// HTML resembles markup: tags with high redundancy wrapping text.
	HTML
	// Skewed resembles pre-transformed data (columnar encodings, media
	// side-channels): a heavily skewed byte histogram with almost no
	// string-level redundancy, so dictionary coding finds little but entropy
	// coding still pays.
	Skewed
	// Random is incompressible noise, the ratio floor.
	Random
	// Zeros is a single repeated byte, the ratio ceiling.
	Zeros
)

// Kinds lists every corpus family, in declaration order.
var Kinds = []Kind{Text, Log, JSON, Protobuf, Table, HTML, Skewed, Random, Zeros}

func (k Kind) String() string {
	switch k {
	case Text:
		return "text"
	case Log:
		return "log"
	case JSON:
		return "json"
	case Protobuf:
		return "protobuf"
	case Table:
		return "table"
	case HTML:
		return "html"
	case Skewed:
		return "skewed"
	case Random:
		return "random"
	case Zeros:
		return "zeros"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var words = [...]string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "at",
	"be", "this", "have", "from", "or", "one", "had", "by", "word", "but",
	"not", "what", "all", "were", "we", "when", "your", "can", "said", "there",
	"use", "an", "each", "which", "she", "do", "how", "their", "if", "will",
	"up", "other", "about", "out", "many", "then", "them", "these", "so", "some",
	"her", "would", "make", "like", "him", "into", "time", "has", "look", "two",
	"more", "write", "go", "see", "number", "no", "way", "could", "people", "my",
	"than", "first", "water", "been", "call", "who", "oil", "its", "now", "find",
	"long", "down", "day", "did", "get", "come", "made", "may", "part", "over",
	"warehouse", "compression", "accelerator", "datacenter", "throughput", "latency",
	"hierarchy", "bandwidth", "pipeline", "speculative",
}

var logLevels = [...]string{"INFO", "WARN", "ERROR", "DEBUG", "TRACE"}
var logComponents = [...]string{
	"rpc.server", "storage.shard", "cache.l2", "net.dispatch", "auth.token",
	"compress.pool", "scheduler.node", "index.builder",
}
var jsonKeys = [...]string{
	"id", "name", "timestamp", "status", "payload", "metadata", "version",
	"region", "shard", "latency_us", "bytes", "checksum", "owner", "labels",
}
var htmlTags = [...]string{"div", "span", "p", "a", "li", "td", "h2", "section"}

// slot is a piece of record text padded to one fixed-size move: the text,
// zeros, and the text's length in the last byte. put copies all 16 bytes
// whatever the length, so the record loops make no memmove call and no
// length-dependent branch per word; the bytes past the text are overwritten
// by whatever the record writes next.
type slot [16]byte

func newSlot(text string) (s slot) {
	if len(text) >= len(s) {
		panic("corpus: " + text + " does not fit a slot")
	}
	copy(s[:], text)
	s[len(s)-1] = byte(len(text))
	return s
}

// The vocabularies as slots, and the records' fixed text. The arrays take
// their lengths from the vocabularies, so every Intn bound below is a
// constant.
var (
	wordSlots      [len(words)]slot
	levelSlots     [len(logLevels)]slot
	componentSlots [len(logComponents)]slot
	keySlots       [len(jsonKeys)]slot
	tagSlots       [len(htmlTags)]slot

	litTask    = newSlot(" task=")
	litAttempt = newSlot(" attempt=")
	litMsg     = newSlot(` msg="`)
	litDur     = newSlot(`" dur_us=`)
	litInner   = newSlot(`{"inner":"`)
	litV       = newSlot(`","v":`)
	litTrue    = newSlot("true")
	litFalse   = newSlot("false")
	litClass   = newSlot(` class="c`)
)

func init() {
	fill := func(slots []slot, vocab []string) {
		for i, text := range vocab {
			slots[i] = newSlot(text)
		}
	}
	fill(wordSlots[:], words[:])
	fill(levelSlots[:], logLevels[:])
	fill(componentSlots[:], logComponents[:])
	fill(keySlots[:], jsonKeys[:])
	fill(tagSlots[:], htmlTags[:])
}

// slack is the room every generator has past its target length: a record
// begun before the target is written whole (and trimmed), and a slot write
// always covers 16 bytes. The longest record is a JSON object — nine fields of
// at most 44 bytes plus braces, under 400 bytes; a log line is at most 113.
const slack = 512

// Generate returns size bytes of kind-shaped data, deterministic in seed.
func Generate(kind Kind, size int, seed int64) []byte {
	if size <= 0 {
		return nil
	}
	var g Gen
	return g.AppendGenerate(make([]byte, 0, size+slack), kind, size, seed)
}

// Gen generates corpus data through a reusable generator state; replay loops
// hold one beside a reused payload buffer. The zero value is ready to use.
// Not safe for concurrent use.
type Gen struct {
	rng rng
}

// AppendGenerate appends size bytes of kind-shaped data to dst and returns
// the extended slice. The appended bytes are identical to Generate's output
// for the same (kind, size, seed). Like append, it may write to the capacity
// past the returned length: it grows dst once, to size+slack, and lets the
// last record run over.
func (g *Gen) AppendGenerate(dst []byte, kind Kind, size int, seed int64) []byte {
	if size <= 0 {
		return dst
	}
	n := len(dst)
	target := n + size
	out := slices.Grow(dst, size+slack)[:target+slack]
	r := &g.rng
	r.seed(seed ^ int64(kind)<<32)
	switch kind {
	case Text:
		genText(r, out, n, target)
	case Log:
		genLog(r, out, n, target)
	case JSON:
		genJSON(r, out, n, target)
	case Protobuf:
		genProtobuf(r, out, n, target)
	case Table:
		genTable(r, out, n, target)
	case HTML:
		genHTML(r, out, n, target)
	case Skewed:
		for ; n < target; n++ {
			u := r.float64()
			// Square-law skew over a 64-value alphabet: entropy ~4.8
			// bits/byte with essentially no multi-byte repetition.
			out[n] = byte(u * u * 64)
		}
	case Random:
		for ; n < target; n++ {
			out[n] = byte(r.intnPow2(256))
		}
	case Zeros:
		clear(out[n:target])
	default:
		panic("corpus: unknown kind")
	}
	return out[:target]
}

// put writes s at out[n:] and returns the position after its text.
func put(out []byte, n int, s *slot) int {
	*(*slot)(out[n:]) = *s
	return n + int(s[len(s)-1])
}

// putInt writes v in decimal at out[n:] and returns the position after it.
func putInt(out []byte, n int, v int) int {
	return len(strconv.AppendUint(out[:n], uint64(v), 10))
}

// zipfWord picks a word with a skewed (roughly Zipfian) distribution so the
// vocabulary reuse mimics natural text.
func zipfWord(r *rng) *slot {
	// Square a uniform variate to bias toward low indices.
	u := r.float64()
	idx := int(u * u * float64(len(words)))
	if idx >= len(words) {
		idx = len(words) - 1
	}
	return &wordSlots[idx]
}

// The record loops below fill out[n:target] and run over by at most one
// record (see slack). Draw order is the contract: each loop makes exactly the
// draws, in exactly the order, that produced the bytes TestGenerateGolden pins.

func genText(r *rng, out []byte, n, target int) {
	sentenceLen := 0
	for n < target {
		w := zipfWord(r)
		if sentenceLen == 0 {
			first := n
			n = put(out, n, w)
			out[first] -= 'a' - 'A'
		} else {
			out[n] = ' '
			n = put(out, n+1, w)
		}
		sentenceLen++
		if sentenceLen > 6 && r.intn(10) == 0 {
			sentenceLen = 0
			out[n] = '.'
			if r.intn(6) == 0 {
				out[n+1], out[n+2] = '\n', '\n'
				n += 3
			} else {
				out[n+1] = ' '
				n += 2
			}
		}
	}
}

func genLog(r *rng, out []byte, n, target int) {
	ts := 1660000000000
	for n < target {
		ts += r.intn(5000)
		n = putInt(out, n, ts)
		out[n] = ' '
		n = put(out, n+1, &levelSlots[r.intn(len(levelSlots))])
		out[n] = ' '
		n = put(out, n+1, &componentSlots[r.intnPow2(len(componentSlots))])
		n = put(out, n, &litTask)
		n = putInt(out, n, r.intnPow2(1<<16))
		n = put(out, n, &litAttempt)
		out[n] = '0' + byte(r.intnPow2(4))
		n = put(out, n+1, &litMsg)
		n = put(out, n, zipfWord(r))
		out[n] = ' '
		n = put(out, n+1, zipfWord(r))
		out[n] = ' '
		n = put(out, n+1, zipfWord(r))
		n = put(out, n, &litDur)
		n = putInt(out, n, r.intnPow2(1<<20))
		out[n] = '\n'
		n++
	}
}

func genJSON(r *rng, out []byte, n, target int) {
	for n < target {
		out[n] = '{'
		n++
		fields := 4 + r.intn(6)
		for i := 0; i < fields; i++ {
			if i > 0 {
				out[n] = ','
				n++
			}
			// The vocabulary is plain ASCII, so quoting never escapes.
			out[n] = '"'
			n = put(out, n+1, &keySlots[r.intn(len(keySlots))])
			out[n], out[n+1] = '"', ':'
			n += 2
			switch r.intnPow2(4) {
			case 0:
				n = putInt(out, n, r.intnPow2(1<<24))
			case 1:
				out[n] = '"'
				n = put(out, n+1, zipfWord(r))
				out[n] = '-'
				n = put(out, n+1, zipfWord(r))
				out[n] = '"'
				n++
			case 2:
				n = put(out, n, &litInner)
				n = put(out, n, zipfWord(r))
				n = put(out, n, &litV)
				n = putInt(out, n, r.intn(100))
				out[n] = '}'
				n++
			default:
				if r.intnPow2(2) == 0 {
					n = put(out, n, &litTrue)
				} else {
					n = put(out, n, &litFalse)
				}
			}
		}
		out[n], out[n+1] = '}', '\n'
		n += 2
	}
}

func genProtobuf(r *rng, out []byte, n, target int) {
	for n < target {
		// A message with a handful of fields: varints, fixed32, strings.
		for f := 1; f <= 6; f++ {
			switch r.intn(3) {
			case 0: // varint field
				out[n] = byte(f<<3 | 0)
				n++
				v := r.intnPow2(1 << 20)
				for ; v >= 0x80; v >>= 7 {
					out[n] = byte(v) | 0x80
					n++
				}
				out[n] = byte(v)
				n++
			case 1: // length-delimited string
				w := zipfWord(r)
				out[n], out[n+1] = byte(f<<3|2), w[len(w)-1]
				n = put(out, n+2, w)
			default: // fixed32
				v := r.intnPow2(1 << 16) // low entropy in high bytes
				out[n], out[n+1], out[n+2], out[n+3], out[n+4] = byte(f<<3|5), byte(v), byte(v>>8), 0, 0
				n += 5
			}
		}
	}
}

func genTable(r *rng, out []byte, n, target int) {
	rowID := uint32(r.intnPow2(1 << 20))
	for ; n < target; n += 24 {
		rowID++
		rec := [24]byte{}
		rec[0] = byte(rowID)
		rec[1] = byte(rowID >> 8)
		rec[2] = byte(rowID >> 16)
		rec[3] = byte(rowID >> 24)
		rec[4] = byte(r.intnPow2(4))  // enum column
		rec[5] = byte(r.intnPow2(2))  // flag column
		rec[6] = byte(r.intnPow2(16)) // small numeric
		// columns 7..15 constant per stretch
		v := r.intnPow2(1 << 10)
		rec[16] = byte(v)
		rec[17] = byte(v >> 8)
		*(*[24]byte)(out[n:]) = rec
	}
}

func genHTML(r *rng, out []byte, n, target int) {
	for n < target {
		tag := &tagSlots[r.intnPow2(len(tagSlots))]
		out[n] = '<'
		n = put(out, n+1, tag)
		n = put(out, n, &litClass)
		out[n], out[n+1], out[n+2] = '0'+byte(r.intnPow2(8)), '"', '>'
		n += 3
		count := 1 + r.intnPow2(8)
		for i := 0; i < count; i++ {
			if i > 0 {
				out[n] = ' '
				n++
			}
			n = put(out, n, zipfWord(r))
		}
		out[n], out[n+1] = '<', '/'
		n = put(out, n+2, tag)
		out[n], out[n+1] = '>', '\n'
		n += 2
	}
}

// File is a named synthetic corpus file.
type File struct {
	Name string
	Kind Kind
	Data []byte
}

// standardSpecs is StandardSuite's file table, in suite order.
var standardSpecs = [...]struct {
	name string
	kind Kind
	size int
	seed int64
}{
	{"dickens.txt", Text, 2 << 20, 11},
	{"webster.txt", Text, 8 << 20, 12},
	{"nci.log", Log, 6 << 20, 13},
	{"mr.table", Table, 2 << 20, 14},
	{"samba.json", JSON, 4 << 20, 15},
	{"sao.bin", Random, 1 << 20, 16},
	{"osdb.pb", Protobuf, 2 << 20, 17},
	{"xml.html", HTML, 1 << 20, 18},
	{"x-ray.bin", Random, 2 << 20, 19},
	{"zeros.bin", Zeros, 1 << 20, 20},
	{"kennedy.table", Table, 256 << 10, 21},
	{"plrabn12.txt", Text, 512 << 10, 22},
	{"world192.txt", Text, 1 << 20, 23},
	{"fireworks.json", JSON, 128 << 10, 24},
	{"geo.pb", Protobuf, 128 << 10, 25},
	{"urls.log", Log, 512 << 10, 26},
	{"ooffice.bin", Skewed, 1 << 20, 27},
	{"reymont.bin", Skewed, 512 << 10, 28},
}

// StandardSuite returns a fixed set of corpus files resembling the size
// distribution of the open-source benchmarks the paper analyzes in Figure 6:
// whole files in the hundreds of KiB to tens of MiB, with a median call size
// roughly 256x the fleet's median (~100 KiB vs fleet ~0.4 KiB-biased mix).
// Sizes here are scaled down ~4x from Silesia's to keep test runtime sane
// while preserving the "vastly larger than fleet calls" property.
//
// The files are generated on GOMAXPROCS goroutines, each writing the files it
// claims by position, so the suite is the same at any parallelism.
func StandardSuite() []File {
	files := make([]File, len(standardSpecs))
	par.For(len(files), runtime.GOMAXPROCS(0), func(_, i int) error {
		s := &standardSpecs[i]
		files[i] = File{Name: s.name, Kind: s.kind, Data: Generate(s.kind, s.size, s.seed)}
		return nil
	})
	return files
}

// StandardSizes returns the sizes of StandardSuite's files, in suite order,
// without generating them.
func StandardSizes() []int {
	sizes := make([]int, len(standardSpecs))
	for i, s := range standardSpecs {
		sizes[i] = s.size
	}
	return sizes
}

// SmallSuite returns a reduced suite for fast unit tests: same kinds, much
// smaller sizes.
func SmallSuite() []File {
	files := make([]File, 0, len(Kinds))
	for i, k := range Kinds {
		files = append(files, File{
			Name: fmt.Sprintf("small-%s", k),
			Kind: k,
			Data: Generate(k, 64<<10, int64(100+i)),
		})
	}
	return files
}
