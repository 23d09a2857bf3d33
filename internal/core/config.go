// Package core implements the paper's primary contribution: a parameterized
// generator for compression and decompression processing units (CDPUs),
// reproduced as a functional-plus-timing simulator. Every block of the
// paper's Figures 9 and 10 — memloaders/memwriters, command router, the LZ77
// encoder (hash matcher + litlen injector) and decoder (loader, off-chip
// history lookup, writer), the speculative Huffman expander, the FSE
// expander, and the Huffman/FSE compressors with their dictionary builders —
// appears as a modeled stage: the functional half produces real bytes via
// the shared codec packages, and the timing half charges cycles according to
// the block's microarchitectural parameters (§5.8).
//
// A unit is instantiated from a Config carrying the paper's generator
// parameters (item 7, the hash-way payload, is fixed at offset-only);
// Compress/Decompress calls return both the payload result and a per-stage
// cycle breakdown, so design-space exploration (Section 6) can
// sweep placements, history SRAM sizes, hash table shapes, Huffman
// speculation widths and FSE accuracies and observe speedup, compression
// ratio and area move exactly as the paper's Figures 11–15 describe.
package core

import (
	"fmt"

	"cdpu/internal/comp"
	"cdpu/internal/fse"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
)

// History SRAM bounds (bytes). The paper sweeps 2 KiB..64 KiB.
const (
	MinHistorySRAM = 1 << 10
	MaxHistorySRAM = 1 << 20
)

// Default microarchitectural parameters.
const (
	DefaultHistorySRAM   = 64 << 10
	DefaultHashEntries   = 1 << 14
	DefaultHashAssoc     = 1
	DefaultSpeculation   = 16
	DefaultFSETableLog   = 9
	DefaultStatsWidth    = 8 // bytes/cycle of symbol-statistics collection
	DefaultHuffEncLanes  = 2 // literal symbols encoded per cycle
	DefaultHuffTableBits = 11
)

// Config parameterizes one generated CDPU pipeline (one algorithm, one
// direction). It exposes the generator parameters of §5.8; zero values take
// the defaults above.
type Config struct {
	// Algo selects the supported algorithm (Snappy or ZStd; §5.8.1 item 2).
	Algo comp.Algorithm
	// Op selects compressor or decompressor.
	Op comp.Op
	// Placement locates the unit in the system (§5.8.1 item 1).
	Placement memsys.Placement
	// HistorySRAM is the on-accelerator history window in bytes (§5.8.2-3).
	// For decompression, offsets beyond it fall back to L2/memory; for
	// compression it bounds the matchable window outright (§6.3).
	HistorySRAM int
	// HashTableEntries is the LZ77 encoder's bucket count (§5.8.3 item 5).
	HashTableEntries int
	// HashAssociativity is ways per bucket (§5.8.3 item 6). Each way holds
	// an offset only (item 7's untagged payload).
	HashAssociativity int
	// HashFunc selects the hash function (§5.8.3 item 8).
	HashFunc lz77.HashFunc
	// Speculation is the Huffman expander's speculative decode width
	// (§5.8.4 item 9; the z15 uses 32).
	Speculation int
	// StatsWidth is bytes/cycle of symbol-statistics collection in the
	// Huffman and FSE compressors (§5.8.5-6 items 10-11).
	StatsWidth int
	// FSETableLog is the FSE table accuracy (§5.8.6 item 12).
	FSETableLog int
	// WatchdogFactor scales the cycle-budget watchdog: a call whose modeled
	// latency exceeds WatchdogFactor × the expected bound (a generous
	// per-byte envelope, see fault.go) aborts with a DeviceError instead of
	// hanging software forever. Zero takes DefaultWatchdogFactor; negative
	// disables the watchdog.
	WatchdogFactor float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.HistorySRAM == 0 {
		c.HistorySRAM = DefaultHistorySRAM
	}
	if c.HashTableEntries == 0 {
		c.HashTableEntries = DefaultHashEntries
	}
	if c.HashAssociativity == 0 {
		c.HashAssociativity = DefaultHashAssoc
	}
	if c.Speculation == 0 {
		c.Speculation = DefaultSpeculation
	}
	if c.StatsWidth == 0 {
		c.StatsWidth = DefaultStatsWidth
	}
	if c.FSETableLog == 0 {
		c.FSETableLog = DefaultFSETableLog
	}
	if c.WatchdogFactor == 0 {
		c.WatchdogFactor = DefaultWatchdogFactor
	}
	return c
}

// Validate reports whether the configuration can be generated.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Algo != comp.Snappy && c.Algo != comp.ZStd:
		return fmt.Errorf("core: unsupported algorithm %v (the generator builds Snappy and ZStd units)", c.Algo)
	case c.Op != comp.Compress && c.Op != comp.Decompress:
		return fmt.Errorf("core: bad op %v", c.Op)
	case c.HistorySRAM < MinHistorySRAM || c.HistorySRAM > MaxHistorySRAM:
		return fmt.Errorf("core: history SRAM %d out of [%d,%d]", c.HistorySRAM, MinHistorySRAM, MaxHistorySRAM)
	case c.HistorySRAM&(c.HistorySRAM-1) != 0:
		return fmt.Errorf("core: history SRAM %d not a power of two", c.HistorySRAM)
	case c.HashTableEntries&(c.HashTableEntries-1) != 0:
		return fmt.Errorf("core: hash entries %d not a power of two", c.HashTableEntries)
	case c.HashAssociativity < 1 || c.HashAssociativity > 16:
		return fmt.Errorf("core: associativity %d", c.HashAssociativity)
	case c.Speculation < 1 || c.Speculation > 64:
		return fmt.Errorf("core: speculation %d out of [1,64]", c.Speculation)
	case c.StatsWidth < 1 || c.StatsWidth > 64:
		return fmt.Errorf("core: stats width %d", c.StatsWidth)
	case c.FSETableLog < fse.MinTableLog || c.FSETableLog > fse.MaxTableLog:
		return fmt.Errorf("core: FSE table log %d", c.FSETableLog)
	}
	return nil
}

// Name returns a compact instance label, e.g. "ZStd-D-RoCC-64K-spec16".
func (c Config) Name() string {
	c = c.withDefaults()
	s := fmt.Sprintf("%v-%v-%v-%dK", c.Algo, c.Op, c.Placement, c.HistorySRAM>>10)
	if c.Op == comp.Compress {
		s += fmt.Sprintf("-ht%d", log2(c.HashTableEntries))
	}
	if c.Algo == comp.ZStd && c.Op == comp.Decompress {
		s += fmt.Sprintf("-spec%d", c.Speculation)
	}
	return s
}

// Key returns a canonical identity string for the configuration with
// defaults applied: two Configs with equal Keys generate functionally and
// temporally identical units. The DSE scheduler keys its config-run memo on
// this, so e.g. a sweep cell requested as {Algo: ZStd} and the same cell
// requested with every default spelled out share one simulation.
func (c Config) Key() string {
	c = c.withDefaults()
	return fmt.Sprintf("%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%g",
		c.Algo, c.Op, c.Placement, c.HistorySRAM, c.HashTableEntries,
		c.HashAssociativity, c.HashFunc, c.Speculation,
		c.StatsWidth, c.FSETableLog, c.WatchdogFactor)
}

// FunctionalKey identifies, with defaults applied, everything about the
// configuration that decides which bytes and which LZ77 commands a call
// produces — what a Trace holds. A decompressor decodes whatever it is handed,
// so only its algorithm counts; a compressor's parse depends on the window,
// the hash table and, for ZStd, the FSE accuracy. Placement, Speculation,
// StatsWidth and WatchdogFactor only change what the call is charged: units
// whose FunctionalKeys are equal can time one another's traces.
func (c Config) FunctionalKey() string {
	c = c.withDefaults()
	if c.Op == comp.Decompress {
		return fmt.Sprintf("%d.%d", c.Algo, c.Op)
	}
	return fmt.Sprintf("%d.%d.%d.%d.%d.%d.%d", c.Algo, c.Op, c.HistorySRAM,
		c.HashTableEntries, c.HashAssociativity, c.HashFunc, c.FSETableLog)
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}
