// Package mem implements the simulated virtual-memory substrate that the
// PHOENIX reproduction runs on.
//
// An AddressSpace maps 4 KiB-page-aligned regions to physical Frames. Frames
// are allocated lazily on first write (an untouched mapped page reads as
// zeros, like anonymous memory). The key operation for PHOENIX is
// MovePages: transferring the page-table entries from a dying address space
// into a fresh one with no data copy, which is the zero-copy transfer
// mechanism of §3.3. Every other way to share pages (Clone, CopyPages,
// snapshot commits, rewind pre-images) shares the frames' bytes copy-on-write:
// the one page-byte copy in the package happens at the first write to a
// shared frame.
//
// Accessing an unmapped address panics with *Fault. This mirrors a hardware
// page fault turning into SIGSEGV: application code that follows a dangling
// reference into discarded memory crashes, and the simulated kernel converts
// the panic into a signal (see internal/kernel).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VAddr is a simulated virtual address.
type VAddr uint64

// NullPtr is the canonical nil simulated pointer. Page zero is never mapped,
// so dereferencing NullPtr always faults.
const NullPtr VAddr = 0

// PageNum is a virtual page number (VAddr >> PageShift).
type PageNum uint64

// PageOf returns the page number containing addr.
func PageOf(addr VAddr) PageNum { return PageNum(addr >> PageShift) }

// PageBase returns the first address of the page containing addr.
func PageBase(addr VAddr) VAddr { return addr &^ (PageSize - 1) }

// PagesFor returns the number of pages needed to hold n bytes.
func PagesFor(n int) int { return (n + PageSize - 1) / PageSize }

// Fault describes an invalid simulated-memory access. It is used as a panic
// value; the kernel recovers it and delivers SIGSEGV.
type Fault struct {
	Addr VAddr
	Op   string // "read", "write", "map", "free"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: fault: %s at %#x", f.Op, uint64(f.Addr))
}

// Kind labels what a mapping backs. It controls how the kernel and linker
// treat the region across a PHOENIX restart.
type Kind uint8

const (
	// KindBrk is the growing data segment managed by the heap's sbrk path.
	KindBrk Kind = iota
	// KindMmap is an anonymous mapping (heap arenas, large allocations).
	KindMmap
	// KindSection is a loaded binary section (.data/.bss/.phx.*).
	KindSection
	// KindStack is thread stack memory; always discarded on restart.
	KindStack
	// KindCustom is a user-managed preserved range (raw interface, §3.3).
	KindCustom
)

func (k Kind) String() string {
	switch k {
	case KindBrk:
		return "brk"
	case KindMmap:
		return "mmap"
	case KindSection:
		return "section"
	case KindStack:
		return "stack"
	case KindCustom:
		return "custom"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is a page-table entry: a physical page frame, held by value in its
// mapping's slot. The zero Frame (Gen 0) is "no entry": the page reads as
// zeros and carries no dirty bit. Data is allocated on first write; a nil
// Data reads as zeros.
//
// Dirty is the frame's soft-dirty bit: set by every write path (including
// FlipBit, which models DMA/DRAM corruption that bypasses application-level
// store instrumentation but still goes through the MMU where soft-dirty
// lives), and cleared only by the preservation machinery after a verified
// commit. Because the bit lives on the frame, it travels with the frame
// through MovePages/UnmovePages and is duplicated by CopyPages/Clone.
// Gen is the frame's write-generation stamp: the value of the owning
// address space's monotonic write counter at the frame's last content
// mutation (writes, Zero, FlipBit, rewind-domain discard restores, and
// arrival via MovePages/CopyPages all count). Within one address space two
// distinct mutation events never share a stamp, so an observer that records
// PageGen(p) knows the page's bytes are unchanged for exactly as long as the
// stamp is. Live shard migration uses this to find its per-round delta
// without touching the preserve machinery's soft-dirty baseline.
//
// shared says Data may also be referenced by another table — a clone, a
// copied range, a frozen snapshot view or a rewind pre-image — so the bytes
// are read-only until materialize gives this slot its own copy.
type Frame struct {
	Data   []byte
	Dirty  bool
	shared bool
	Gen    uint64
}

// materialize returns f's bytes ready for mutation: it marks the frame dirty,
// allocates a zero page on first write, and un-shares shared bytes. It is the
// only place the package copies page bytes.
func (f *Frame) materialize() []byte {
	f.Dirty = true
	if f.shared {
		f.Data, f.shared = bytes.Clone(f.Data), false
	}
	if f.Data == nil {
		f.Data = make([]byte, PageSize)
	}
	return f.Data
}

// share marks f's bytes as referenced from a second table, so that the next
// write through either copies them first. A frame already shared is left
// unwritten: every resident frame of a frozen view is, and views are read
// from many goroutines at once.
func (f *Frame) share() {
	if f.Data != nil && !f.shared {
		f.shared = true
	}
}

// Mapping describes one contiguous mapped region. It owns the region's slice
// of the page table.
type Mapping struct {
	Start VAddr
	Pages int
	Kind  Kind
	Name  string

	// frames holds one slot per page: frames[i] is the frame of page
	// PageOf(Start)+i, the zero Frame while that page has no entry. A copy of
	// a Mapping by value shares this slice, so each copy this package makes
	// gets its own.
	frames []Frame
}

// End returns the first address past the mapping.
func (m *Mapping) End() VAddr { return m.Start + VAddr(m.Pages)*PageSize }

// Len returns the mapping length in bytes.
func (m *Mapping) Len() int { return m.Pages * PageSize }

// Contains reports whether addr falls inside the mapping.
func (m *Mapping) Contains(addr VAddr) bool {
	return addr >= m.Start && addr < m.End()
}

// slot returns the index of page p in m.frames; p must lie inside m.
func (m *Mapping) slot(p PageNum) int { return int(p - PageOf(m.Start)) }

// resize sets the mapping's length, growing its page table with empty slots
// or dropping the frames past the new end.
func (m *Mapping) resize(pages int) {
	if pages < len(m.frames) {
		clear(m.frames[pages:])
		m.frames = m.frames[:pages]
	} else {
		m.frames = append(m.frames, make([]Frame, pages-len(m.frames))...)
	}
	m.Pages = pages
}

// AddressSpace is one process's simulated virtual memory. The page table is
// dense and owned by the mappings: each Mapping holds its pages' frames, so a
// lookup is the mapping search plus one slice index, and every walk over the
// table runs in ascending page order.
//
// Read paths write nothing, not even a lookup hint: frozen snapshot views are
// read from many goroutines at once.
type AddressSpace struct {
	mappings []*Mapping // sorted by Start, non-overlapping

	// domain is the open rewind domain's undo log, nil when none (rewind.go).
	domain *rewindDomain

	// writeGen is the monotonic write-generation counter stamped onto frames
	// at every content mutation (see Frame.Gen). It only ever increases, so a
	// stamp is never reused — not even when a frame entry is dropped and a
	// fresh one created at the same page number.
	writeGen uint64

	// ASLRBase is the randomized layout offset chosen at first startup and
	// reused across PHOENIX restarts (§3.3, ASLR compatibility).
	ASLRBase VAddr
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{}
}

// Map creates a mapping of pages pages starting at the page-aligned start.
// It returns an error if start is unaligned, the length is non-positive, the
// range overlaps an existing mapping, or the range includes page zero.
func (as *AddressSpace) Map(start VAddr, pages int, kind Kind, name string) (*Mapping, error) {
	if start%PageSize != 0 {
		return nil, fmt.Errorf("mem: Map %s: unaligned start %#x", name, uint64(start))
	}
	if pages <= 0 {
		return nil, fmt.Errorf("mem: Map %s: non-positive length %d", name, pages)
	}
	if start == 0 {
		return nil, fmt.Errorf("mem: Map %s: page zero is reserved", name)
	}
	m := &Mapping{Start: start, Pages: pages, Kind: kind, Name: name, frames: make([]Frame, pages)}
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

// after returns the index of the first mapping whose end lies past addr, or
// len(as.mappings) if there is none. The mappings are sorted and
// non-overlapping, so it is the only mapping that can contain addr.
func (as *AddressSpace) after(addr VAddr) int {
	lo, hi := 0, len(as.mappings)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if as.mappings[mid].End() > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// overlap returns any mapping intersecting [lo,hi): the first mapping whose
// end lies past lo intersects iff it starts before hi.
func (as *AddressSpace) overlap(lo, hi VAddr) *Mapping {
	if i := as.after(lo); i < len(as.mappings) && as.mappings[i].Start < hi {
		return as.mappings[i]
	}
	return nil
}

func (as *AddressSpace) insert(m *Mapping) {
	i := as.after(m.Start)
	as.mappings = append(as.mappings, nil)
	copy(as.mappings[i+1:], as.mappings[i:])
	as.mappings[i] = m
}

// Unmap removes the mapping that starts exactly at start and drops its
// page table. It returns an error if no such mapping exists.
func (as *AddressSpace) Unmap(start VAddr) error {
	i := as.after(start)
	if i == len(as.mappings) || as.mappings[i].Start != start {
		return fmt.Errorf("mem: Unmap: no mapping at %#x", uint64(start))
	}
	m := as.mappings[i]
	if as.domain != nil {
		// Snapshot every frame the unmap is about to drop, then journal the
		// mapping so a discard can re-insert it.
		for j := range m.frames {
			as.touch(PageOf(m.Start)+PageNum(j), &m.frames[j])
		}
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoUnmap, m: m})
	}
	m.frames = nil
	as.mappings = append(as.mappings[:i], as.mappings[i+1:]...)
	return nil
}

// Grow extends mapping m by extra pages (used by the sbrk path). The mapping
// must belong to this address space — growing a stale pointer from before an
// Unmap, or a mapping of a different space, would corrupt the sorted
// non-overlapping invariant — and the new range must not collide with another
// mapping.
func (as *AddressSpace) Grow(m *Mapping, extra int) error {
	if extra <= 0 {
		return fmt.Errorf("mem: Grow %s: non-positive extra %d", m.Name, extra)
	}
	if i := as.after(m.Start); i >= len(as.mappings) || as.mappings[i] != m {
		return fmt.Errorf("mem: Grow %s: mapping [%#x,%#x) not owned by this address space",
			m.Name, uint64(m.Start), uint64(m.End()))
	}
	newEnd := m.End() + VAddr(extra)*PageSize
	if ov := as.overlap(m.End(), newEnd); ov != nil {
		return fmt.Errorf("mem: Grow %s: collides with %s", m.Name, ov.Name)
	}
	m.resize(m.Pages + extra)
	if as.domain != nil {
		as.domain.journal = append(as.domain.journal, mapUndo{kind: undoGrow, m: m, extra: extra})
	}
	return nil
}

// FindMapping returns the mapping containing addr, or nil.
func (as *AddressSpace) FindMapping(addr VAddr) *Mapping {
	if i := as.after(addr); i < len(as.mappings) && as.mappings[i].Start <= addr {
		return as.mappings[i]
	}
	return nil
}

// Mappings returns the current mappings in address order. The returned slice
// is a copy; the *Mapping values are live.
func (as *AddressSpace) Mappings() []*Mapping {
	out := make([]*Mapping, len(as.mappings))
	copy(out, as.mappings)
	return out
}

// Mapped reports whether addr lies inside a mapping.
func (as *AddressSpace) Mapped(addr VAddr) bool { return as.FindMapping(addr) != nil }

// checkRange panics with *Fault unless [addr, addr+n) is fully mapped.
// n must be small enough that the range spans a bounded number of mappings;
// contiguous adjacent mappings are accepted.
func (as *AddressSpace) checkRange(addr VAddr, n int, op string) {
	end := addr + VAddr(n)
	cur := addr
	for cur < end {
		m := as.FindMapping(cur)
		if m == nil {
			panic(&Fault{Addr: cur, Op: op})
		}
		cur = m.End()
	}
	if n == 0 && !as.Mapped(addr) {
		panic(&Fault{Addr: addr, Op: op})
	}
}

// frameAt returns page p's frame entry, the zero Frame when p is unmapped or
// has none.
func (as *AddressSpace) frameAt(p PageNum) Frame {
	if m := as.FindMapping(VAddr(p) << PageShift); m != nil {
		return m.frames[m.slot(p)]
	}
	return Frame{}
}

// mustFind returns the mapping containing addr, panicking with *Fault when
// there is none.
func (as *AddressSpace) mustFind(addr VAddr, op string) *Mapping {
	m := as.FindMapping(addr)
	if m == nil {
		panic(&Fault{Addr: addr, Op: op})
	}
	return m
}

// data returns page p's bytes, nil when the page is not resident. p must lie
// inside m.
func (m *Mapping) data(p PageNum) []byte { return m.frames[m.slot(p)].Data }

// eachSpan calls fn, in address order, once for each mapping that overlaps
// pages [lo, hi), with the first page of the overlap and the overlap's slots.
func (as *AddressSpace) eachSpan(lo, hi PageNum, fn func(m *Mapping, first PageNum, slots []Frame)) {
	for i := as.after(VAddr(lo) << PageShift); i < len(as.mappings); i++ {
		m := as.mappings[i]
		first := max(lo, PageOf(m.Start))
		if first >= hi {
			return
		}
		fn(m, first, m.frames[m.slot(first):m.slot(min(hi, PageOf(m.End())))])
	}
}

// allPages is the hi bound that makes eachSpan walk the whole table.
const allPages = ^PageNum(0)

// write returns page p of mapping m materialized for mutation: it snapshots
// the page into an open rewind domain, stamps a fresh write generation (which
// creates the frame entry if there was none) and un-shares the bytes. Every
// byte-mutating path funnels through it (DiscardDomain stamps explicitly),
// which is what makes PageGen a sound change detector and keeps shared bytes
// unwritten.
func (as *AddressSpace) write(m *Mapping, p PageNum) []byte {
	f := &m.frames[m.slot(p)]
	as.touch(p, f)
	as.stamp(f)
	return f.materialize()
}

// stamp assigns frame f a fresh write generation from this address space.
// Frames arriving from another address space (MovePages/CopyPages and their
// rollbacks) must be re-stamped: their old stamps were drawn from a different
// counter and could collide with generations this space already handed out.
// Stamps never exceed writeGen.
func (as *AddressSpace) stamp(f *Frame) {
	as.writeGen++
	f.Gen = as.writeGen
}

// ReadAt copies len(buf) bytes at addr into buf. It panics with *Fault if
// any byte of the range is unmapped.
func (as *AddressSpace) ReadAt(addr VAddr, buf []byte) {
	as.checkRange(addr, len(buf), "read")
	for off := 0; off < len(buf); {
		a := addr + VAddr(off)
		pgOff := int(a % PageSize)
		n := min(PageSize-pgOff, len(buf)-off)
		if d := as.frameAt(PageOf(a)).Data; d != nil {
			copy(buf[off:off+n], d[pgOff:])
		} else {
			clear(buf[off : off+n])
		}
		off += n
	}
}

// WriteAt copies buf into simulated memory at addr. It panics with *Fault if
// any byte of the range is unmapped.
func (as *AddressSpace) WriteAt(addr VAddr, buf []byte) {
	as.checkRange(addr, len(buf), "write")
	for off := 0; off < len(buf); {
		a := addr + VAddr(off)
		off += copy(as.write(as.FindMapping(a), PageOf(a))[a%PageSize:], buf[off:])
	}
}

// ReadBytes returns a fresh copy of n bytes at addr.
func (as *AddressSpace) ReadBytes(addr VAddr, n int) []byte {
	buf := make([]byte, n)
	as.ReadAt(addr, buf)
	return buf
}

// Zero writes n zero bytes at addr. A frame left entirely zero is released
// back to the unmaterialized state (its bookkeeping entry and dirty bit
// remain), so large clears shrink the resident set instead of inflating the
// preserve/checksum working set with pages that read identically to untouched
// ones.
func (as *AddressSpace) Zero(addr VAddr, n int) {
	as.checkRange(addr, n, "write")
	for off := 0; off < n; {
		a := addr + VAddr(off)
		pgOff := int(a % PageSize)
		cnt := min(PageSize-pgOff, n-off)
		m := as.FindMapping(a)
		if f := &m.frames[m.slot(PageOf(a))]; f.Data != nil {
			clear(as.write(m, PageOf(a))[pgOff : pgOff+cnt])
			if allZero(f.Data) {
				f.Data = nil
			}
		}
		off += cnt
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// ReadU8 reads one byte at addr.
func (as *AddressSpace) ReadU8(addr VAddr) byte {
	if d := as.mustFind(addr, "read").data(PageOf(addr)); d != nil {
		return d[addr%PageSize]
	}
	return 0
}

// WriteU8 writes one byte at addr.
func (as *AddressSpace) WriteU8(addr VAddr, v byte) {
	as.write(as.mustFind(addr, "write"), PageOf(addr))[addr%PageSize] = v
}

// The fixed-width accessors below take one mapping search when the value
// lies inside one page, and fall back to ReadAt/WriteAt when it straddles a
// page boundary. Both paths fault at the first unmapped byte.

// ReadU64 reads a little-endian uint64 at addr.
func (as *AddressSpace) ReadU64(addr VAddr) uint64 {
	if o := addr % PageSize; o <= PageSize-8 {
		if d := as.mustFind(addr, "read").data(PageOf(addr)); d != nil {
			return binary.LittleEndian.Uint64(d[o:])
		}
		return 0
	}
	var buf [8]byte
	as.ReadAt(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteU64 writes a little-endian uint64 at addr.
func (as *AddressSpace) WriteU64(addr VAddr, v uint64) {
	if o := addr % PageSize; o <= PageSize-8 {
		binary.LittleEndian.PutUint64(as.write(as.mustFind(addr, "write"), PageOf(addr))[o:], v)
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	as.WriteAt(addr, buf[:])
}

// ReadU32 reads a little-endian uint32 at addr.
func (as *AddressSpace) ReadU32(addr VAddr) uint32 {
	if o := addr % PageSize; o <= PageSize-4 {
		if d := as.mustFind(addr, "read").data(PageOf(addr)); d != nil {
			return binary.LittleEndian.Uint32(d[o:])
		}
		return 0
	}
	var buf [4]byte
	as.ReadAt(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// WriteU32 writes a little-endian uint32 at addr.
func (as *AddressSpace) WriteU32(addr VAddr, v uint32) {
	if o := addr % PageSize; o <= PageSize-4 {
		binary.LittleEndian.PutUint32(as.write(as.mustFind(addr, "write"), PageOf(addr))[o:], v)
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	as.WriteAt(addr, buf[:])
}

// ReadPtr reads a simulated pointer stored at addr.
func (as *AddressSpace) ReadPtr(addr VAddr) VAddr { return VAddr(as.ReadU64(addr)) }

// WritePtr stores a simulated pointer at addr.
func (as *AddressSpace) WritePtr(addr VAddr, p VAddr) { as.WriteU64(addr, uint64(p)) }

// MovePages transfers the frames of [start, start+pages*PageSize) from as
// into dst — the zero-copy PTE move at the heart of preserve_exec. The
// region must be fully covered by mappings in as; equivalent mappings are
// created in dst (which must have the range free). It returns the number of
// page-table entries moved (including entries for untouched zero pages).
func (as *AddressSpace) MovePages(dst *AddressSpace, start VAddr, pages int) (int, error) {
	end := start + VAddr(pages)*PageSize
	// Validate full coverage first so we fail atomically.
	for cur := start; cur < end; {
		m := as.FindMapping(cur)
		if m == nil {
			return 0, fmt.Errorf("mem: MovePages: unmapped address %#x", uint64(cur))
		}
		cur = m.End()
	}
	if ov := dst.overlap(start, end); ov != nil {
		return 0, fmt.Errorf("mem: MovePages: destination overlap with %s", ov.Name)
	}
	// Mirror each source mapping, clipped to the range, into dst and hand the
	// mirror the source's slots.
	as.eachSpan(PageOf(start), PageOf(end), func(m *Mapping, first PageNum, slots []Frame) {
		nm := &Mapping{Start: VAddr(first) << PageShift, Pages: len(slots), Kind: m.Kind, Name: m.Name,
			frames: slices.Clone(slots)}
		clear(slots)
		for i := range nm.frames {
			if nm.frames[i].Gen != 0 {
				dst.stamp(&nm.frames[i])
			}
		}
		dst.insert(nm)
	})
	return pages, nil
}

// UnmovePages reverses a MovePages call that transferred [start,
// start+pages*PageSize) from src into as: the frames are handed back to src —
// whose original mappings must still be in place, as MovePages moves frames
// but never removes source mappings — and the mirror mappings MovePages
// created here are dropped. It is the kernel's rollback primitive for
// aborting a partially committed preserve_exec without leaving the dying
// process half-gutted.
func (as *AddressSpace) UnmovePages(src *AddressSpace, start VAddr, pages int) {
	end := start + VAddr(pages)*PageSize
	as.eachSpan(PageOf(start), PageOf(end), func(_ *Mapping, first PageNum, slots []Frame) {
		for i := range slots {
			if slots[i].Gen != 0 {
				p := first + PageNum(i)
				sm := src.FindMapping(VAddr(p) << PageShift)
				f := &sm.frames[sm.slot(p)]
				*f = slots[i]
				src.stamp(f)
			}
		}
		clear(slots)
	})
	kept := as.mappings[:0]
	for _, m := range as.mappings {
		if m.Start >= start && m.End() <= end {
			continue
		}
		kept = append(kept, m)
	}
	clear(as.mappings[len(kept):])
	as.mappings = kept
}

// CopyPages copies the content of [start, start+pages*PageSize) from as into
// dst, creating a single mapping there (used by fork-style snapshots and
// partial-page preservation). It returns the number of resident pages copied.
// Unlike MovePages the source keeps its pages; both sides share the bytes
// until either writes them.
func (as *AddressSpace) CopyPages(dst *AddressSpace, start VAddr, pages int, kind Kind, name string) (int, error) {
	nm, err := dst.Map(start, pages, kind, name)
	if err != nil {
		return 0, err
	}
	copied := 0
	as.eachSpan(PageOf(start), PageOf(start)+PageNum(pages), func(_ *Mapping, first PageNum, slots []Frame) {
		for i := range slots {
			if slots[i].Gen == 0 {
				continue
			}
			// A copy preserves tracking state, it is not a write, but the
			// generation is per-space: re-stamp on arrival.
			slots[i].share()
			nf := &nm.frames[nm.slot(first+PageNum(i))]
			*nf = slots[i]
			dst.stamp(nf)
			if nf.Data != nil {
				copied++
			}
		}
	})
	return copied, nil
}

// Clone returns an independent copy of the address space: mappings and page
// tables are duplicated, and the two spaces share every frame's bytes until
// either writes them. Used by CRIU-style full-process snapshots and by
// snapshot commits.
func (as *AddressSpace) Clone() *AddressSpace {
	cp := &AddressSpace{
		mappings: make([]*Mapping, len(as.mappings)),
		writeGen: as.writeGen, // faithful snapshot: stamps stay valid as a set
		ASLRBase: as.ASLRBase,
	}
	for i, m := range as.mappings {
		for j := range m.frames {
			m.frames[j].share()
		}
		nm := *m
		nm.frames = slices.Clone(m.frames)
		cp.mappings[i] = &nm
	}
	return cp
}

// FNV-1a (64-bit) is the checksum preserve_exec stamps into the preserve
// info block for every transferred frame: cheap enough to run at crash time,
// and any single bit flip in a page changes the sum.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Checksum returns the 64-bit FNV-1a hash of data.
func Checksum(data []byte) uint64 {
	sum := uint64(fnvOffset64)
	for _, b := range data {
		sum ^= uint64(b)
		sum *= fnvPrime64
	}
	return sum
}

// zeroPageChecksum is Checksum of one untouched (all-zero) page, precomputed
// so checksumming sparse preserved ranges never materializes their frames.
var zeroPageChecksum = Checksum(make([]byte, PageSize))

// PageChecksum returns the FNV-1a checksum of page p's current contents.
// Unmaterialized frames (and unmapped pages) read as zeros, matching what
// ReadAt would observe.
func (as *AddressSpace) PageChecksum(p PageNum) uint64 {
	if d := as.frameAt(p).Data; d != nil {
		return Checksum(d)
	}
	return zeroPageChecksum
}

// FlipBit inverts one bit of the byte at addr, materializing the frame if
// needed. It is the corruption primitive behind the kernel.preserve.corrupt
// fault-injection site: a simulated hardware/DMA bit flip that bypasses the
// store instrumentation application code routes through. It still sets the
// frame's soft-dirty bit — soft-dirty is an MMU property, not an
// instrumentation property — which is what lets delta checksums catch flips
// in pages the application never wrote: a "clean" page whose content changed
// is by definition corrupted, and it must re-enter the checksum walk.
func (as *AddressSpace) FlipBit(addr VAddr, bit uint) {
	as.write(as.mustFind(addr, "write"), PageOf(addr))[addr%PageSize] ^= 1 << (bit % 8)
}

// PageGen returns page p's write-generation stamp; 0 means the page has no
// frame entry (it reads as zeros). Equal stamps across two observations of
// the same address space guarantee the page's bytes did not change in
// between; a changed stamp says only that they may have. Migration delta rounds scan
// stamps (cheap) and re-hash only stamp-changed pages (expensive), so round
// cost tracks the write rate, not the shard size.
func (as *AddressSpace) PageGen(p PageNum) uint64 { return as.frameAt(p).Gen }

// PageDirty reports whether page p carries a set soft-dirty bit.
func (as *AddressSpace) PageDirty(p PageNum) bool { return as.frameAt(p).Dirty }

// PageResident reports whether page p has materialized data. A non-resident
// page reads as zeros and checksums as the zero page in O(1).
func (as *AddressSpace) PageResident(p PageNum) bool { return as.frameAt(p).Data != nil }

// DirtySet returns the numbers of every dirty page, in ascending order.
func (as *AddressSpace) DirtySet() []PageNum { return as.dirtySet(0, allPages) }

// DirtyPages returns the number of dirty pages.
func (as *AddressSpace) DirtyPages() int { return as.dirtyPages(0, allPages) }

// DirtyPagesIn returns how many pages of [start, start+pages*PageSize) are
// dirty.
func (as *AddressSpace) DirtyPagesIn(start VAddr, pages int) int {
	return as.dirtyPages(PageOf(start), PageOf(start)+PageNum(pages))
}

// DirtySetIn returns the dirty pages of [start, start+pages*PageSize) in
// ascending order. A clean range returns nil — not a zero-length allocated
// slice — so the hot preserve loop and rewind-domain entry produce no garbage
// when there is nothing to report.
func (as *AddressSpace) DirtySetIn(start VAddr, pages int) []PageNum {
	return as.dirtySet(PageOf(start), PageOf(start)+PageNum(pages))
}

func (as *AddressSpace) dirtySet(lo, hi PageNum) []PageNum {
	var out []PageNum
	as.eachSpan(lo, hi, func(_ *Mapping, first PageNum, slots []Frame) {
		for i := range slots {
			if slots[i].Dirty {
				out = append(out, first+PageNum(i))
			}
		}
	})
	return out
}

func (as *AddressSpace) dirtyPages(lo, hi PageNum) int {
	n := 0
	as.eachSpan(lo, hi, func(_ *Mapping, _ PageNum, slots []Frame) {
		for i := range slots {
			if slots[i].Dirty {
				n++
			}
		}
	})
	return n
}

// ClearDirty clears the soft-dirty bits of [start, start+pages*PageSize).
// Only the preservation machinery may call it, and only after a verified
// commit: clearing establishes "content matches the recorded checksums" as
// the new baseline, so clearing without having recorded (and verified) the
// content breaks the delta-checksum invariant.
func (as *AddressSpace) ClearDirty(start VAddr, pages int) {
	as.clearDirty(PageOf(start), PageOf(start)+PageNum(pages))
}

// ClearAllDirty clears every soft-dirty bit in the address space. Same
// contract as ClearDirty; used by whole-process incremental checkpoints.
func (as *AddressSpace) ClearAllDirty() { as.clearDirty(0, allPages) }

func (as *AddressSpace) clearDirty(lo, hi PageNum) {
	as.eachSpan(lo, hi, func(_ *Mapping, _ PageNum, slots []Frame) {
		for i := range slots {
			slots[i].Dirty = false
		}
	})
}

// ResidentPages returns the number of frames with materialized data.
func (as *AddressSpace) ResidentPages() int {
	n := 0
	for _, m := range as.mappings {
		for i := range m.frames {
			if m.frames[i].Data != nil {
				n++
			}
		}
	}
	return n
}

// MappedPages returns the total number of mapped pages.
func (as *AddressSpace) MappedPages() int {
	n := 0
	for _, m := range as.mappings {
		n += m.Pages
	}
	return n
}

// MappedBytes returns the total mapped size in bytes.
func (as *AddressSpace) MappedBytes() int64 { return int64(as.MappedPages()) * PageSize }
