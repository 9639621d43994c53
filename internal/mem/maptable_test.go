package mem

// mapSpace is the map-keyed page table the dense per-mapping table replaced:
// one Go map from page number to frame beside a sorted mapping list. It is
// kept, in test code only, as the reference FuzzPageTableDifferential drives
// in lockstep with AddressSpace. The code is the replaced implementation's,
// with one change: DiscardDomain restores pages in ascending order, so its
// restamps are deterministic (the original ranged over a map, so which
// restored page got which fresh stamp varied from run to run).

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

type mapSpace struct {
	frames   map[PageNum]*Frame
	mappings []*Mapping // sorted by Start, non-overlapping; frames unused
	domain   *mapDomain
	writeGen uint64
}

type mapDomain struct {
	pages   map[PageNum]domainRecord
	journal []mapUndo
}

// domainRecord is the pre-image of one touched page.
type domainRecord struct {
	// data is a copy of the frame's bytes at first touch; nil when the frame
	// was unmaterialized (read as zeros).
	data []byte
	// dirty is the frame's soft-dirty bit at first touch.
	dirty bool
	// existed reports whether a frame bookkeeping entry existed at all; when
	// false, discard deletes the entry instead of restoring into it.
	existed bool
}

func newMapSpace() *mapSpace { return &mapSpace{frames: make(map[PageNum]*Frame)} }

func (as *mapSpace) Map(start VAddr, pages int, kind Kind, name string) (*Mapping, error) {
	if start%PageSize != 0 {
		return nil, fmt.Errorf("mem: Map %s: unaligned start %#x", name, uint64(start))
	}
	if pages <= 0 {
		return nil, fmt.Errorf("mem: Map %s: non-positive length %d", name, pages)
	}
	if start == 0 {
		return nil, fmt.Errorf("mem: Map %s: page zero is reserved", name)
	}
	m := &Mapping{Start: start, Pages: pages, Kind: kind, Name: name}
	if ov := as.overlap(m.Start, m.End()); ov != nil {
		return nil, fmt.Errorf("mem: Map %s: [%#x,%#x) overlaps %s [%#x,%#x)",
			name, uint64(start), uint64(m.End()), ov.Name, uint64(ov.Start), uint64(ov.End()))
	}
	as.insert(m)
	if as.domain != nil {
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoMap, m: m})
	}
	return m, nil
}

func (as *mapSpace) overlap(lo, hi VAddr) *Mapping {
	i := sort.Search(len(as.mappings), func(i int) bool {
		return as.mappings[i].End() > lo
	})
	if i < len(as.mappings) && as.mappings[i].Start < hi {
		return as.mappings[i]
	}
	return nil
}

func (as *mapSpace) insert(m *Mapping) {
	i := sort.Search(len(as.mappings), func(i int) bool {
		return as.mappings[i].Start >= m.Start
	})
	as.mappings = append(as.mappings, nil)
	copy(as.mappings[i+1:], as.mappings[i:])
	as.mappings[i] = m
}

func (as *mapSpace) Unmap(start VAddr) error {
	for i, m := range as.mappings {
		if m.Start == start {
			if as.domain != nil {
				for p := PageOf(m.Start); p < PageOf(m.End()); p++ {
					as.touch(p)
				}
				as.domain.journal = append(as.domain.journal, mapUndo{kind: undoUnmap, m: m})
			}
			for p := PageOf(m.Start); p < PageOf(m.End()); p++ {
				delete(as.frames, p)
			}
			as.mappings = append(as.mappings[:i], as.mappings[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("mem: Unmap: no mapping at %#x", uint64(start))
}

func (as *mapSpace) Grow(m *Mapping, extra int) error {
	if extra <= 0 {
		return fmt.Errorf("mem: Grow %s: non-positive extra %d", m.Name, extra)
	}
	i := sort.Search(len(as.mappings), func(i int) bool {
		return as.mappings[i].Start >= m.Start
	})
	if i >= len(as.mappings) || as.mappings[i] != m {
		return fmt.Errorf("mem: Grow %s: mapping [%#x,%#x) not owned by this address space",
			m.Name, uint64(m.Start), uint64(m.End()))
	}
	newEnd := m.End() + VAddr(extra)*PageSize
	if ov := as.overlap(m.End(), newEnd); ov != nil {
		return fmt.Errorf("mem: Grow %s: collides with %s", m.Name, ov.Name)
	}
	m.Pages += extra
	if as.domain != nil {
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoGrow, m: m, extra: extra})
	}
	return nil
}

func (as *mapSpace) FindMapping(addr VAddr) *Mapping {
	i := sort.Search(len(as.mappings), func(i int) bool {
		return as.mappings[i].End() > addr
	})
	if i < len(as.mappings) && as.mappings[i].Contains(addr) {
		return as.mappings[i]
	}
	return nil
}

func (as *mapSpace) checkRange(addr VAddr, n int, op string) {
	end := addr + VAddr(n)
	cur := addr
	for cur < end {
		m := as.FindMapping(cur)
		if m == nil {
			panic(&Fault{Addr: cur, Op: op})
		}
		cur = m.End()
	}
	if n == 0 && as.FindMapping(addr) == nil {
		panic(&Fault{Addr: addr, Op: op})
	}
}

func (as *mapSpace) frame(p PageNum) *Frame {
	f := as.frames[p]
	if f == nil {
		f = &Frame{}
		as.frames[p] = f
	}
	return f
}

func (as *mapSpace) write(p PageNum) []byte {
	f := as.frame(p)
	as.writeGen++
	f.Gen = as.writeGen
	return f.materialize()
}

func (as *mapSpace) stamp(f *Frame) {
	as.writeGen++
	f.Gen = as.writeGen
}

func (as *mapSpace) ReadAt(addr VAddr, buf []byte) {
	as.checkRange(addr, len(buf), "read")
	off := 0
	for off < len(buf) {
		p := PageOf(addr + VAddr(off))
		pgOff := int((addr + VAddr(off)) % PageSize)
		n := min(PageSize-pgOff, len(buf)-off)
		if f := as.frames[p]; f != nil && f.Data != nil {
			copy(buf[off:off+n], f.Data[pgOff:pgOff+n])
		} else {
			for i := off; i < off+n; i++ {
				buf[i] = 0
			}
		}
		off += n
	}
}

func (as *mapSpace) WriteAt(addr VAddr, buf []byte) {
	as.checkRange(addr, len(buf), "write")
	off := 0
	for off < len(buf) {
		p := PageOf(addr + VAddr(off))
		pgOff := int((addr + VAddr(off)) % PageSize)
		n := min(PageSize-pgOff, len(buf)-off)
		as.touch(p)
		data := as.write(p)
		copy(data[pgOff:pgOff+n], buf[off:off+n])
		off += n
	}
}

func (as *mapSpace) Zero(addr VAddr, n int) {
	as.checkRange(addr, n, "write")
	off := 0
	for off < n {
		p := PageOf(addr + VAddr(off))
		pgOff := int((addr + VAddr(off)) % PageSize)
		cnt := min(PageSize-pgOff, n-off)
		if f := as.frames[p]; f != nil && f.Data != nil {
			as.touch(p)
			d := f.Data[pgOff : pgOff+cnt]
			for i := range d {
				d[i] = 0
			}
			f.Dirty = true
			as.stamp(f)
			if allZero(f.Data) {
				f.Data = nil
			}
		}
		off += cnt
	}
}

func (as *mapSpace) FlipBit(addr VAddr, bit uint) {
	as.checkRange(addr, 1, "write")
	as.touch(PageOf(addr))
	as.write(PageOf(addr))[addr%PageSize] ^= 1 << (bit % 8)
}

func (as *mapSpace) MovePages(dst *mapSpace, start VAddr, pages int) (int, error) {
	end := start + VAddr(pages)*PageSize
	cur := start
	for cur < end {
		m := as.FindMapping(cur)
		if m == nil {
			return 0, fmt.Errorf("mem: MovePages: unmapped address %#x", uint64(cur))
		}
		cur = m.End()
	}
	if ov := dst.overlap(start, end); ov != nil {
		return 0, fmt.Errorf("mem: MovePages: destination overlap with %s", ov.Name)
	}
	cur = start
	for cur < end {
		m := as.FindMapping(cur)
		lo := max(m.Start, start)
		hi := min(m.End(), end)
		nm := &Mapping{Start: lo, Pages: int((hi - lo) / PageSize), Kind: m.Kind, Name: m.Name}
		dst.insert(nm)
		cur = m.End()
	}
	moved := 0
	for p := PageOf(start); p < PageOf(end); p++ {
		if f, ok := as.frames[p]; ok {
			dst.stamp(f)
			dst.frames[p] = f
			delete(as.frames, p)
		}
		moved++
	}
	return moved, nil
}

func (as *mapSpace) UnmovePages(src *mapSpace, start VAddr, pages int) {
	end := start + VAddr(pages)*PageSize
	for p := PageOf(start); p < PageOf(end); p++ {
		if f, ok := as.frames[p]; ok {
			src.stamp(f)
			src.frames[p] = f
			delete(as.frames, p)
		}
	}
	kept := as.mappings[:0]
	for _, m := range as.mappings {
		if m.Start >= start && m.End() <= end {
			continue
		}
		kept = append(kept, m)
	}
	as.mappings = kept
}

func (as *mapSpace) CopyPages(dst *mapSpace, start VAddr, pages int, kind Kind, name string) (int, error) {
	if _, err := dst.Map(start, pages, kind, name); err != nil {
		return 0, err
	}
	copied := 0
	for i := 0; i < pages; i++ {
		p := PageOf(start) + PageNum(i)
		if f, ok := as.frames[p]; ok {
			nf := dst.frame(p)
			nf.Dirty = f.Dirty
			dst.stamp(nf)
			if f.Data != nil {
				nf.Data = append([]byte(nil), f.Data...)
				copied++
			}
		}
	}
	return copied, nil
}

func (as *mapSpace) Clone() *mapSpace {
	cp := newMapSpace()
	cp.writeGen = as.writeGen
	for _, m := range as.mappings {
		nm := *m
		cp.insert(&nm)
	}
	for p, f := range as.frames {
		nf := &Frame{Dirty: f.Dirty, Gen: f.Gen}
		if f.Data != nil {
			nf.Data = append([]byte(nil), f.Data...)
		}
		cp.frames[p] = nf
	}
	return cp
}

func (as *mapSpace) PageChecksum(p PageNum) uint64 {
	if f := as.frames[p]; f != nil && f.Data != nil {
		return Checksum(f.Data)
	}
	return zeroPageChecksum
}

func (as *mapSpace) PageGen(p PageNum) uint64 {
	if f := as.frames[p]; f != nil {
		return f.Gen
	}
	return 0
}

func (as *mapSpace) PageDirty(p PageNum) bool {
	f := as.frames[p]
	return f != nil && f.Dirty
}

func (as *mapSpace) PageResident(p PageNum) bool {
	f := as.frames[p]
	return f != nil && f.Data != nil
}

func (as *mapSpace) DirtySet() []PageNum {
	var out []PageNum
	for p, f := range as.frames {
		if f.Dirty {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (as *mapSpace) ClearDirty(start VAddr, pages int) {
	for p := PageOf(start); p < PageOf(start)+PageNum(pages); p++ {
		if f := as.frames[p]; f != nil {
			f.Dirty = false
		}
	}
}

func (as *mapSpace) ClearAllDirty() {
	for _, f := range as.frames {
		f.Dirty = false
	}
}

func (as *mapSpace) ResidentPages() int {
	n := 0
	for _, f := range as.frames {
		if f.Data != nil {
			n++
		}
	}
	return n
}

func (as *mapSpace) BeginRewindDomain() error {
	if as.domain != nil {
		return fmt.Errorf("mem: BeginRewindDomain: a domain is already open")
	}
	as.domain = &mapDomain{pages: make(map[PageNum]domainRecord)}
	return nil
}

func (as *mapSpace) CommitDomain() (int, error) {
	if as.domain == nil {
		return 0, fmt.Errorf("mem: CommitDomain: no open domain")
	}
	n := len(as.domain.pages)
	as.domain = nil
	return n, nil
}

func (as *mapSpace) DiscardDomain() (int, error) {
	if as.domain == nil {
		return 0, fmt.Errorf("mem: DiscardDomain: no open domain")
	}
	d := as.domain
	as.domain = nil
	for i := len(d.journal) - 1; i >= 0; i-- {
		u := d.journal[i]
		switch u.kind {
		case undoMap:
			if err := as.Unmap(u.m.Start); err != nil {
				return 0, fmt.Errorf("mem: DiscardDomain: %w", err)
			}
		case undoUnmap:
			as.insert(u.m)
		case undoGrow:
			u.m.Pages -= u.extra
		}
	}
	pages := make([]PageNum, 0, len(d.pages))
	for p := range d.pages {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	for _, p := range pages {
		rec := d.pages[p]
		if !rec.existed {
			delete(as.frames, p)
			continue
		}
		f := as.frames[p]
		if f == nil {
			f = &Frame{}
			as.frames[p] = f
		}
		f.Data = rec.data
		f.Dirty = rec.dirty
		as.stamp(f)
	}
	return len(d.pages), nil
}

func (as *mapSpace) touch(p PageNum) {
	if as.domain == nil {
		return
	}
	if _, done := as.domain.pages[p]; done {
		return
	}
	rec := domainRecord{}
	if f, ok := as.frames[p]; ok {
		rec.existed = true
		rec.dirty = f.Dirty
		if f.Data != nil {
			rec.data = append([]byte(nil), f.Data...)
		}
	}
	as.domain.pages[p] = rec
}

// mapStore is the replaced SnapshotStore: each version keeps a gens map of
// every live page's stamp beside its view.
type mapStore struct {
	mu      sync.Mutex
	as      *mapSpace
	latest  *mapVersion
	live    []*mapVersion
	nextSeq uint64
}

type mapVersion struct {
	seq     uint64
	view    *mapSpace
	gens    map[PageNum]uint64
	maxGen  uint64
	changed int
	refs    int
	retired bool
}

func (s *mapStore) Commit() *mapVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.latest
	s.nextSeq++
	v := &mapVersion{
		seq:    s.nextSeq,
		view:   newMapSpace(),
		gens:   make(map[PageNum]uint64, len(s.as.frames)),
		maxGen: s.as.writeGen,
	}
	for p, f := range s.as.frames {
		v.gens[p] = f.Gen
		if f.Gen > v.maxGen {
			v.maxGen = f.Gen
		}
		if prev != nil {
			if pg, ok := prev.gens[p]; ok && pg == f.Gen {
				if pf, ok := prev.view.frames[p]; ok {
					v.view.frames[p] = pf
				}
				continue
			}
		}
		v.changed++
		if f.Data != nil {
			v.view.frames[p] = &Frame{Data: append([]byte(nil), f.Data...), Gen: f.Gen}
		}
	}
	for _, m := range s.as.mappings {
		nm := *m
		v.view.insert(&nm)
	}
	s.latest = v
	s.live = append(s.live, v)
	if prev != nil && prev.refs == 0 {
		s.retire(prev)
	}
	return v
}

func (s *mapStore) Open() *mapVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == nil {
		return nil
	}
	s.latest.refs++
	return s.latest
}

func (s *mapStore) Release(v *mapVersion) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.refs <= 0 {
		panic("mem: snapshot Release without matching Open")
	}
	v.refs--
	if v.refs == 0 && v != s.latest {
		s.retire(v)
	}
}

func (s *mapStore) retire(v *mapVersion) {
	if v.retired {
		return
	}
	v.retired = true
	v.view = nil
	v.gens = nil
	for i, lv := range s.live {
		if lv == v {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
}

func (s *mapStore) RetainedPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[*Frame]struct{})
	for _, v := range s.live {
		for _, f := range v.view.frames {
			seen[f] = struct{}{}
		}
	}
	return len(seen)
}
