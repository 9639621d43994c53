// Package mem is the fixture mirror of the frame-backed address space, laid
// out so each dirty-bit hazard class appears exactly once, with a clean
// funnel-using counterpart beside it. As in the real package, the page table
// is dense and owned by the mappings: frames are found through a mapping's
// slot slice.
package mem

const PageSize = 64

type Frame struct {
	Data  []byte
	Dirty bool
	Gen   uint64
}

type Mapping struct {
	First  uint64 // first page
	frames []*Frame
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

// materialize is the tracking funnel: every legal write path goes through it.
func (a *AddressSpace) materialize(page uint64) *Frame {
	m, i := a.find(page)
	f := m.frames[i]
	if f == nil {
		f = &Frame{Data: make([]byte, PageSize)}
		m.frames[i] = f
	}
	f.Dirty = true
	return f
}

// write stamps the generation after materializing.
func (a *AddressSpace) write(addr uint64, b byte) {
	f := a.materialize(addr / PageSize)
	a.gen++
	f.Gen = a.gen
	f.Data[addr%PageSize] = b
}

// WriteU8 is the clean exported write path.
func (a *AddressSpace) WriteU8(addr uint64, b byte) { a.write(addr, b) }

// DirtyPages counts dirty frames (a bulk per-page walk).
func (a *AddressSpace) DirtyPages() int {
	n := 0
	for _, m := range a.mappings {
		for _, f := range m.frames {
			if f != nil && f.Dirty {
				n++
			}
		}
	}
	return n
}

// CopyPages is a bulk per-page transfer; the Frame literal with an explicit
// Dirty field is its tracking evidence.
func (a *AddressSpace) CopyPages(from *AddressSpace) {
	for _, m := range from.mappings {
		nm := &Mapping{First: m.First, frames: make([]*Frame, len(m.frames))}
		for i, f := range m.frames {
			if f != nil {
				nm.frames[i] = &Frame{Data: append([]byte(nil), f.Data...), Dirty: true, Gen: f.Gen}
			}
		}
		a.mappings = append(a.mappings, nm)
	}
}

// PokeRaw is the indexed-write mutant: it mutates frame bytes with no
// materialize/dirty evidence anywhere in the function.
func (a *AddressSpace) PokeRaw(addr uint64, b byte) {
	m, i := a.find(addr / PageSize)
	f := m.frames[i]
	f.Data[addr%PageSize] = b
}

// PokeSlot is the page-table mutant: it writes the Data of the frame in a
// mapping's slot directly, with no materialize/dirty evidence.
func (a *AddressSpace) PokeSlot(addr uint64, b byte) {
	m, i := a.find(addr / PageSize)
	m.frames[i].Data[addr%PageSize] = b
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
