// Package mem is the fixture mirror of the frame-backed address space, laid
// out so each dirty-bit hazard class appears exactly once, with a clean
// funnel-using counterpart beside it. As in the real package, the page table
// is dense and owned by the mappings, its slots hold Frame values, and a
// frame's bytes may be shared with another table until materialize copies
// them.
package mem

const PageSize = 64

type Frame struct {
	Data   []byte
	Dirty  bool
	shared bool
	Gen    uint64
}

type Mapping struct {
	First  uint64 // first page
	frames []Frame
}

type AddressSpace struct {
	mappings []*Mapping
	gen      uint64
}

func New() *AddressSpace {
	return &AddressSpace{}
}

// find returns the mapping holding page and the page's slot in it.
func (a *AddressSpace) find(page uint64) (*Mapping, int) {
	for _, m := range a.mappings {
		if page >= m.First && page < m.First+uint64(len(m.frames)) {
			return m, int(page - m.First)
		}
	}
	return nil, 0
}

// materialize is the tracking funnel: it marks the frame dirty and un-shares
// its bytes, so every legal in-place write goes through it.
func (f *Frame) materialize() {
	f.Dirty = true
	if f.shared {
		f.Data, f.shared = append([]byte(nil), f.Data...), false
	}
	if f.Data == nil {
		f.Data = make([]byte, PageSize)
	}
}

// write stamps the generation and materializes before writing in place.
func (a *AddressSpace) write(addr uint64, b byte) {
	m, i := a.find(addr / PageSize)
	f := &m.frames[i]
	a.gen++
	f.Gen = a.gen
	f.materialize()
	f.Data[addr%PageSize] = b
}

// WriteU8 is the clean exported write path.
func (a *AddressSpace) WriteU8(addr uint64, b byte) { a.write(addr, b) }

// DirtyPages counts dirty frames (a bulk per-page walk).
func (a *AddressSpace) DirtyPages() int {
	n := 0
	for _, m := range a.mappings {
		for i := range m.frames {
			if m.frames[i].Dirty {
				n++
			}
		}
	}
	return n
}

// CopyPages is a bulk per-page transfer: it shares the source's bytes and
// copies the slots, writing no frame bytes.
func (a *AddressSpace) CopyPages(from *AddressSpace) {
	for _, m := range from.mappings {
		for i := range m.frames {
			if m.frames[i].Data != nil {
				m.frames[i].shared = true
			}
		}
		a.mappings = append(a.mappings, &Mapping{First: m.First, frames: append([]Frame(nil), m.frames...)})
	}
}

// Release drops a page's bytes; the fresh stamp is its tracking evidence.
func (a *AddressSpace) Release(page uint64) {
	m, i := a.find(page)
	a.gen++
	m.frames[i].Gen = a.gen
	m.frames[i].Data = nil
}

// PokeRaw is the indexed-write mutant: it mutates frame bytes with no
// materialize/dirty evidence anywhere in the function.
func (a *AddressSpace) PokeRaw(addr uint64, b byte) {
	m, i := a.find(addr / PageSize)
	f := &m.frames[i]
	f.Data[addr%PageSize] = b
}

// PokeSlot is the page-table mutant: it writes the Data of the frame in a
// mapping's slot directly, with no materialize/dirty evidence.
func (a *AddressSpace) PokeSlot(addr uint64, b byte) {
	m, i := a.find(addr / PageSize)
	m.frames[i].Data[addr%PageSize] = b
}

// PokeShared is the copy-on-write mutant: it sets the tracking state by hand
// but writes the bytes in place, so a table sharing them sees the write.
func (a *AddressSpace) PokeShared(addr uint64, b byte) {
	m, i := a.find(addr / PageSize)
	f := &m.frames[i]
	a.gen++
	f.Dirty, f.Gen = true, a.gen
	f.Data[addr%PageSize] = b
}

// BlastCopy is the copy-destination mutant, via a locally derived buffer.
func (a *AddressSpace) BlastCopy(page uint64, src []byte) {
	m, i := a.find(page)
	d := m.frames[i].Data
	copy(d, src)
}

// SwapData is the buffer-replacement mutant: the frame keeps its stale Gen.
func (a *AddressSpace) SwapData(page uint64, buf []byte) {
	m, i := a.find(page)
	m.frames[i].Data = buf
}
