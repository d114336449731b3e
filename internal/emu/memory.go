package emu

import "fmt"

const pageSize = 4096

// Memory is a sparse paged address space. Data reads and writes lazily
// map zero pages (the OS model of demand-paged anonymous memory), but
// instruction fetch is only allowed from ranges loaded as executable, so
// control flow escaping into unmapped or non-executable memory faults —
// the detector behind the paper's illegal-instruction verification mode.
type Memory struct {
	pages  map[uint64]*[pageSize]byte
	ranges []memRange
}

type memRange struct {
	start, end uint64
	exec       bool
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*[pageSize]byte{}}
}

// Map registers [start, start+len(data)) as a loaded range, copying data
// into it.
func (m *Memory) Map(start uint64, data []byte, exec bool) {
	m.ranges = append(m.ranges, memRange{start: start, end: start + uint64(len(data)), exec: exec})
	for i, b := range data {
		if b != 0 {
			m.page(start + uint64(i))[(start+uint64(i))%pageSize] = b
		}
	}
}

func (m *Memory) page(addr uint64) *[pageSize]byte {
	base := addr / pageSize
	p := m.pages[base]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[base] = p
	}
	return p
}

// FetchWindow returns up to max bytes of executable memory at addr for
// the decoder (fewer near the end of the range; zero if addr is not
// executable).
func (m *Memory) FetchWindow(addr uint64, max int) []byte {
	for _, r := range m.ranges {
		if r.exec && addr >= r.start && addr < r.end {
			n := uint64(max)
			if addr+n > r.end {
				n = r.end - addr
			}
			out := make([]byte, n)
			for i := range out {
				out[i] = m.page(addr + uint64(i))[(addr+uint64(i))%pageSize]
			}
			return out
		}
	}
	return nil
}

// Read returns size bytes at addr, zero-extended into a uint64.
func (m *Memory) Read(addr uint64, size uint8) (uint64, error) {
	if size == 0 || size > 8 {
		return 0, fmt.Errorf("emu: bad read size %d", size)
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		b := m.page(addr + uint64(i))[(addr+uint64(i))%pageSize]
		v |= uint64(b) << (8 * i)
	}
	return v, nil
}

// Write stores the low size bytes of v at addr.
func (m *Memory) Write(addr uint64, v uint64, size uint8) error {
	if size == 0 || size > 8 {
		return fmt.Errorf("emu: bad write size %d", size)
	}
	for i := uint8(0); i < size; i++ {
		m.page(addr + uint64(i))[(addr+uint64(i))%pageSize] = byte(v >> (8 * i))
	}
	return nil
}

// ReadU64 implements unwind.Memory.
func (m *Memory) ReadU64(addr uint64) (uint64, error) { return m.Read(addr, 8) }
