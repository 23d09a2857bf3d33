package zstdlite

// Memoized entropy decode tables.
//
// Fleet traffic reuses a handful of dictionaries: services compress similar
// payloads with the same encoder settings, so the Huffman code lengths and
// FSE normalized counts that arrive on the wire repeat across calls (the
// paper's shared-dictionary observation, §3.3.3). Building a decode table is
// the expensive part of parsing — 2^maxBits lookup cells for Huffman,
// a 2^tableLog state walk for FSE — while the serialized table description
// is tiny. Decode paths therefore key a process-wide cache on that
// description and rebuild only on first sight.
//
// Built decoders are immutable (decoding keeps its state on the stack), so
// one cached table may serve any number of concurrent replay workers; the
// cache itself is guarded by an RWMutex with a read-mostly fast path.

import (
	"sync"

	"cdpu/internal/fse"
	"cdpu/internal/huffman"
	"cdpu/internal/obs"
)

// Cache traffic counters live in the unified metrics registry, so a
// `cdpubench -metrics` dump shows table reuse alongside every other
// instrument; DecodeTableCacheStats remains the programmatic view.
var (
	metricTableHits   = obs.Default().Counter("zstdlite.table_cache.hits")
	metricTableMisses = obs.Default().Counter("zstdlite.table_cache.misses")
)

// maxCachedTables bounds each table map. Fleet-shaped traffic needs a few
// dozen entries; adversarial streams that mint a fresh table per block hit
// the bound and simply reset the map, so memory stays bounded without an
// eviction policy on the hot path.
const maxCachedTables = 4096

type tableCache struct {
	mu   sync.RWMutex
	huff map[string]*huffman.Decoder
	fse  map[string]*fse.DecTable
}

var tables tableCache

// huffDecoder returns the memoized decoder for a set of serialized code
// lengths, building and caching it on first sight. lens may point into a
// caller scratch buffer; the key is a copy of it.
func (c *tableCache) huffDecoder(lens []uint8) (*huffman.Decoder, error) {
	c.mu.RLock()
	d, ok := c.huff[string(lens)]
	c.mu.RUnlock()
	if ok {
		metricTableHits.Inc()
		return d, nil
	}
	table, err := huffman.FromLengths(lens)
	if err != nil {
		return nil, err
	}
	d = huffman.NewDecoder(table)
	c.mu.Lock()
	if c.huff == nil || len(c.huff) >= maxCachedTables {
		c.huff = make(map[string]*huffman.Decoder)
	}
	// A racing builder may have inserted the same key; last write wins and
	// both values are equivalent, so no double-check is needed.
	c.huff[string(lens)] = d
	c.mu.Unlock()
	metricTableMisses.Inc()
	return d, nil
}

// fseTable returns the memoized decode table for (norm, tableLog), keyed by
// the caller-provided canonical key (fse.AppendNormKey form). key may point
// into a caller scratch buffer; it is copied before being retained.
func (c *tableCache) fseTable(key []byte, norm []int, tableLog int) (*fse.DecTable, error) {
	c.mu.RLock()
	t, ok := c.fse[string(key)]
	c.mu.RUnlock()
	if ok {
		metricTableHits.Inc()
		return t, nil
	}
	t, err := fse.NewDecTable(norm, tableLog)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.fse == nil || len(c.fse) >= maxCachedTables {
		c.fse = make(map[string]*fse.DecTable)
	}
	c.fse[string(key)] = t
	c.mu.Unlock()
	metricTableMisses.Inc()
	return t, nil
}

// TableCacheStats reports cumulative decode-table cache traffic: a hit is a
// table served without building, a miss is a first-sight build. Valid-table
// traffic only — corrupt descriptions error out before touching the cache
// counters.
type TableCacheStats struct {
	Hits, Misses int64
}

// DecodeTableCacheStats returns the process-wide entropy-table cache
// counters.
func DecodeTableCacheStats() TableCacheStats {
	return TableCacheStats{Hits: metricTableHits.Value(), Misses: metricTableMisses.Value()}
}

// ResetDecodeTableCache drops every memoized table and zeroes the counters
// (test isolation; production code never needs it).
func ResetDecodeTableCache() {
	tables.mu.Lock()
	tables.huff = nil
	tables.fse = nil
	tables.mu.Unlock()
	metricTableHits.Reset()
	metricTableMisses.Reset()
}
