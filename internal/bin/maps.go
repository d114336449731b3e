package bin

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// AddrPair maps one address to another. Sorted slices of pairs are the
// payload of both the .ra_map section (relocated return address →
// original call site, Section 6 of the paper) and the .tramp_map section
// (trap trampoline address → relocated target, consumed by the runtime
// library's signal handler).
type AddrPair struct {
	From uint64
	To   uint64
}

// EncodeAddrMap serialises pairs sorted by From into section payload
// bytes: an 8-byte count followed by 16-byte entries. Runtime lookups
// binary-search the encoded form directly, as the paper's preloaded
// runtime library does with the mapping it extracts from the rewritten
// binary.
func EncodeAddrMap(pairs []AddrPair) []byte {
	sorted := append([]AddrPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].From < sorted[j].From })
	out := make([]byte, 8+16*len(sorted))
	binary.LittleEndian.PutUint64(out, uint64(len(sorted)))
	for k, p := range sorted {
		binary.LittleEndian.PutUint64(out[8+16*k:], p.From)
		binary.LittleEndian.PutUint64(out[16+16*k:], p.To)
	}
	return out
}

// DecodeAddrMap parses a section payload produced by EncodeAddrMap.
func DecodeAddrMap(data []byte) ([]AddrPair, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("bin: address map too short (%d bytes)", len(data))
	}
	// Bound n by the bytes actually present before doing arithmetic on
	// it: 8+16*n overflows for adversarial counts.
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)-8)/16 {
		return nil, fmt.Errorf("bin: address map declares %d entries but has %d bytes", n, len(data))
	}
	pairs := make([]AddrPair, n)
	for k := range pairs {
		pairs[k].From = binary.LittleEndian.Uint64(data[8+16*k:])
		pairs[k].To = binary.LittleEndian.Uint64(data[16+16*k:])
	}
	return pairs, nil
}

// AddrMap is a binary-searchable address mapping loaded from an encoded
// section.
type AddrMap struct {
	pairs []AddrPair // sorted by From
}

// NewAddrMap builds a map from decoded pairs (sorting defensively).
func NewAddrMap(pairs []AddrPair) *AddrMap {
	sorted := append([]AddrPair(nil), pairs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].From < sorted[j].From })
	return &AddrMap{pairs: sorted}
}

// Lookup returns the mapping of addr, or (0, false) when absent.
func (m *AddrMap) Lookup(addr uint64) (uint64, bool) {
	i := sort.Search(len(m.pairs), func(i int) bool { return m.pairs[i].From >= addr })
	if i < len(m.pairs) && m.pairs[i].From == addr {
		return m.pairs[i].To, true
	}
	return 0, false
}

// Len returns the number of entries.
func (m *AddrMap) Len() int { return len(m.pairs) }
