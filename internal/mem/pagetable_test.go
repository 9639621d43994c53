package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// FuzzPageTableDifferential drives the dense page table (AddressSpace) and the
// map-keyed table it replaced (mapSpace, maptable_test.go) through the same
// byte-coded operation stream and requires every observable to agree after
// every operation: mappings, bytes, PageGen, PageDirty, PageResident,
// PageChecksum, DirtySet, ResidentPages, faults, returned errors and counts,
// and the snapshot store's Changed and RetainedPages. Frozen views are
// compared by mappings and content, not by PageGen: the dense view keeps a
// Gen-only frame for each non-resident page where the old view kept nothing.
//
// The stream keeps to each operation's contract, as the kernel does:
// MovePages and UnmovePages never run with a rewind domain open on either
// side, CopyPages never copies into a space with one open, and UnmovePages
// only reverses the latest MovePages while neither side's mappings have
// changed since. (Outside these contracts the map-keyed table could keep
// frames at pages no mapping covers; the dense table cannot hold them.)
func FuzzPageTableDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 2, 8, 0, 3, 0, 1, 0, 0, 16, 5, 18, 3, 0, 0, 3, 0xF0, 2, 18})
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := newDiffWorld()
		s := &diffStream{b: ops}
		for n := 0; s.more() && n < 200; n++ {
			op := w.step(s)
			if err := w.compare(); err != nil {
				t.Fatalf("op %d (%s): %v", n, op, err)
			}
		}
		for len(w.holds) > 0 {
			if err := w.release(0); err != nil {
				t.Fatalf("final release: %v", err)
			}
		}
	})
}

const (
	diffBase   = VAddr(0x1000_0000)
	diffWindow = 24             // pages operations land in
	diffScan   = diffWindow + 8 // pages compared: Grow can run past the window
	maxSpaces  = 4
)

type diffStream struct {
	b []byte
	i int
}

func (s *diffStream) more() bool { return s.i < len(s.b) }

func (s *diffStream) next() byte {
	var c byte
	if s.i < len(s.b) {
		c = s.b[s.i]
	}
	s.i++
	return c
}

func (s *diffStream) u16() int { return int(s.next())<<8 | int(s.next()) }

// page returns a page-aligned address in the window; now and then one just
// past it, so faults and failed maps occur.
func (s *diffStream) page() VAddr { return diffBase + VAddr(int(s.next())%(diffWindow+2))*PageSize }

// addr returns an address in the window, biased toward page ends so that
// accesses straddle pages.
func (s *diffStream) addr() VAddr {
	base, hi, lo := s.page(), s.next(), s.next()
	if hi >= 0xC0 {
		return base + PageSize - 1 - VAddr(lo%12)
	}
	return base + VAddr(int(hi)<<8|int(lo))%PageSize
}

// diffWorld holds up to maxSpaces address spaces in both implementations,
// index for index; the snapshot stores are bound to space 0.
type diffWorld struct {
	spaces []*AddressSpace
	refs   []*mapSpace
	store  *SnapshotStore
	rstore *mapStore
	holds  []diffHold
	moved  *diffMove
	err    error // first divergence seen by an operation itself
}

type diffHold struct {
	v *SnapshotVersion
	r *mapVersion
}

type diffMove struct {
	src, dst int
	start    VAddr
	pages    int
}

func newDiffWorld() *diffWorld {
	as, ref := NewAddressSpace(), newMapSpace()
	return &diffWorld{
		spaces: []*AddressSpace{as},
		refs:   []*mapSpace{ref},
		store:  NewSnapshotStore(as),
		rstore: &mapStore{as: ref},
	}
}

func (w *diffWorld) failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// same records a divergence when the two implementations' results differ.
func (w *diffWorld) same(what string, got, want any) {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		w.failf("%s: dense %v, map %v", what, got, want)
	}
}

func (w *diffWorld) sameErr(what string, got, want error) {
	if (got == nil) != (want == nil) {
		w.failf("%s: dense err %v, map err %v", what, got, want)
	}
}

// faults runs the two sides of one access and requires the same *Fault (or
// none) from both.
func (w *diffWorld) faults(what string, dense, ref func()) {
	a, b := catchFault(dense), catchFault(ref)
	if (a == nil) != (b == nil) || a != nil && *a != *b {
		w.failf("%s: dense fault %v, map fault %v", what, a, b)
	}
}

func catchFault(fn func()) (f *Fault) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if f, ok = r.(*Fault); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

func (w *diffWorld) space(s *diffStream) int { return int(s.next()) % len(w.spaces) }

// dest picks a second space for a transfer: a fresh empty one while there is
// room, otherwise an existing one.
func (w *diffWorld) dest(s *diffStream) int {
	if c := s.next(); c%2 == 0 && len(w.spaces) < maxSpaces {
		w.spaces = append(w.spaces, NewAddressSpace())
		w.refs = append(w.refs, newMapSpace())
		return len(w.spaces) - 1
	}
	return int(s.next()) % len(w.spaces)
}

func (w *diffWorld) domainOpen(i int) bool { return w.spaces[i].DomainActive() }

// step decodes and applies one operation to both implementations, returning
// its name.
func (w *diffWorld) step(s *diffStream) string {
	switch op := s.next() % 21; op {
	case 0:
		i, start, n, kind := w.space(s), s.page(), 1+int(s.next())%6, Kind(s.next()%5)
		_, err := w.spaces[i].Map(start, n, kind, "m")
		_, rerr := w.refs[i].Map(start, n, kind, "m")
		w.sameErr("Map", err, rerr)
		w.moved = nil
		return "Map"
	case 1:
		i := w.space(s)
		start := s.page()
		if ms := w.spaces[i].mappings; len(ms) > 0 && s.next()%4 != 0 {
			start = ms[int(s.next())%len(ms)].Start
		}
		w.sameErr("Unmap", w.spaces[i].Unmap(start), w.refs[i].Unmap(start))
		w.moved = nil
		return "Unmap"
	case 2:
		i, k, extra := w.space(s), int(s.next()), 1+int(s.next())%4
		if len(w.spaces[i].mappings) == 0 {
			return "Grow(none)"
		}
		k %= len(w.spaces[i].mappings)
		w.sameErr("Grow", w.spaces[i].Grow(w.spaces[i].mappings[k], extra), w.refs[i].Grow(w.refs[i].mappings[k], extra))
		w.moved = nil
		return "Grow"
	case 3:
		i, width, a, v := w.space(s), s.next()%3, s.addr(), uint64(s.u16())*0x9E3779B97F4A7C15+1
		as, ref := w.spaces[i], w.refs[i]
		switch width {
		case 0:
			w.faults("WriteU8", func() { as.WriteU8(a, byte(v)) }, func() { ref.WriteAt(a, []byte{byte(v)}) })
		case 1:
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(v))
			w.faults("WriteU32", func() { as.WriteU32(a, uint32(v)) }, func() { ref.WriteAt(a, b[:]) })
		default:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			w.faults("WriteU64", func() { as.WriteU64(a, v) }, func() { ref.WriteAt(a, b[:]) })
		}
		return "Write"
	case 4:
		i, width, a := w.space(s), s.next()%3, s.addr()
		as, ref := w.spaces[i], w.refs[i]
		n := []int{1, 4, 8}[width]
		var got uint64
		want := make([]byte, n)
		w.faults("Read", func() {
			switch width {
			case 0:
				got = uint64(as.ReadU8(a))
			case 1:
				got = uint64(as.ReadU32(a))
			default:
				got = as.ReadU64(a)
			}
		}, func() { ref.ReadAt(a, want) })
		var wantV uint64
		for j := n - 1; j >= 0; j-- {
			wantV = wantV<<8 | uint64(want[j])
		}
		w.same("Read value", got, wantV)
		return "Read"
	case 5:
		i, a, n, seed := w.space(s), s.addr(), s.u16()%(2*PageSize+64), s.next()
		buf := pattern(seed, n)
		w.faults("WriteAt", func() { w.spaces[i].WriteAt(a, buf) }, func() { w.refs[i].WriteAt(a, buf) })
		return "WriteAt"
	case 6:
		i, a, n := w.space(s), s.addr(), s.u16()%(2*PageSize+64)
		got, want := make([]byte, n), make([]byte, n)
		w.faults("ReadAt", func() { w.spaces[i].ReadAt(a, got) }, func() { w.refs[i].ReadAt(a, want) })
		if !bytes.Equal(got, want) {
			w.failf("ReadAt %#x+%d: bytes differ", uint64(a), n)
		}
		return "ReadAt"
	case 7:
		i, a, n := w.space(s), s.addr(), s.u16()%(2*PageSize+64)
		w.faults("Zero", func() { w.spaces[i].Zero(a, n) }, func() { w.refs[i].Zero(a, n) })
		return "Zero"
	case 8:
		i, a, bit := w.space(s), s.addr(), uint(s.next())
		w.faults("FlipBit", func() { w.spaces[i].FlipBit(a, bit) }, func() { w.refs[i].FlipBit(a, bit) })
		return "FlipBit"
	case 9:
		i, start, n := w.space(s), s.page(), 1+int(s.next())%8
		j := w.dest(s)
		if w.domainOpen(i) || w.domainOpen(j) {
			return "MovePages(domain open)"
		}
		moved, err := w.spaces[i].MovePages(w.spaces[j], start, n)
		rmoved, rerr := w.refs[i].MovePages(w.refs[j], start, n)
		w.sameErr("MovePages", err, rerr)
		w.same("MovePages count", moved, rmoved)
		w.moved = nil
		if err == nil {
			w.moved = &diffMove{src: i, dst: j, start: start, pages: n}
		}
		return "MovePages"
	case 10:
		mv := w.moved
		if mv == nil || w.domainOpen(mv.src) || w.domainOpen(mv.dst) {
			return "UnmovePages(none)"
		}
		w.spaces[mv.dst].UnmovePages(w.spaces[mv.src], mv.start, mv.pages)
		w.refs[mv.dst].UnmovePages(w.refs[mv.src], mv.start, mv.pages)
		w.moved = nil
		return "UnmovePages"
	case 11:
		i, start, n, kind := w.space(s), s.page(), 1+int(s.next())%8, Kind(s.next()%5)
		j := w.dest(s)
		if w.domainOpen(j) {
			return "CopyPages(domain open)"
		}
		copied, err := w.spaces[i].CopyPages(w.spaces[j], start, n, kind, "c")
		rcopied, rerr := w.refs[i].CopyPages(w.refs[j], start, n, kind, "c")
		w.sameErr("CopyPages", err, rerr)
		w.same("CopyPages count", copied, rcopied)
		w.moved = nil
		return "CopyPages"
	case 12:
		i := w.space(s)
		cp, rcp := w.spaces[i].Clone(), w.refs[i].Clone()
		if len(w.spaces) < maxSpaces {
			w.spaces, w.refs = append(w.spaces, cp), append(w.refs, rcp)
		} else {
			j := 1 + int(s.next())%(maxSpaces-1) // space 0 stays bound to the stores
			w.spaces[j], w.refs[j] = cp, rcp
			w.moved = nil
		}
		return "Clone"
	case 13:
		i := w.space(s)
		w.sameErr("BeginRewindDomain", w.spaces[i].BeginRewindDomain(), w.refs[i].BeginRewindDomain())
		return "BeginRewindDomain"
	case 14:
		i := w.space(s)
		n, err := w.spaces[i].CommitDomain()
		rn, rerr := w.refs[i].CommitDomain()
		w.sameErr("CommitDomain", err, rerr)
		w.same("CommitDomain count", n, rn)
		return "CommitDomain"
	case 15:
		i := w.space(s)
		n, err := w.spaces[i].DiscardDomain()
		rn, rerr := w.refs[i].DiscardDomain()
		w.sameErr("DiscardDomain", err, rerr)
		w.same("DiscardDomain count", n, rn)
		w.moved = nil
		return "DiscardDomain"
	case 16:
		i, start, n := w.space(s), s.page(), 1+int(s.next())%10
		w.spaces[i].ClearDirty(start, n)
		w.refs[i].ClearDirty(start, n)
		return "ClearDirty"
	case 17:
		i := w.space(s)
		w.spaces[i].ClearAllDirty()
		w.refs[i].ClearAllDirty()
		return "ClearAllDirty"
	case 18:
		v, rv := w.store.Commit(), w.rstore.Commit()
		w.same("snapshot Changed", v.Changed(), rv.changed)
		w.same("snapshot MaxGen", v.MaxGen(), rv.maxGen)
		if err := v.CheckFrozen(); err != nil {
			w.failf("CheckFrozen: %v", err)
		}
		w.sameView("committed view", v.View(), rv.view)
		return "SnapshotCommit"
	case 19:
		v, rv := w.store.Open(), w.rstore.Open()
		if (v == nil) != (rv == nil) {
			w.failf("snapshot Open: dense %v, map %v", v, rv)
		} else if v != nil {
			w.holds = append(w.holds, diffHold{v, rv})
		}
		return "SnapshotOpen"
	default:
		if len(w.holds) > 0 {
			if err := w.release(int(s.next()) % len(w.holds)); err != nil {
				w.failf("%v", err)
			}
		}
		return "SnapshotRelease"
	}
}

// release checks held version k's view against the reference's, then
// releases it in both stores.
func (w *diffWorld) release(k int) error {
	h := w.holds[k]
	w.holds = slices.Delete(w.holds, k, k+1)
	if err := h.v.CheckFrozen(); err != nil {
		return err
	}
	w.sameView("held view", h.v.View(), h.r.view)
	w.store.Release(h.v)
	w.rstore.Release(h.r)
	return w.err
}

// sameView compares a frozen view's mappings and page contents.
func (w *diffWorld) sameView(what string, view *AddressSpace, ref *mapSpace) {
	w.same(what+" mappings", mappingsOf(view.mappings), mappingsOf(ref.mappings))
	for _, m := range view.mappings {
		for p := PageOf(m.Start); p < PageOf(m.End()); p++ {
			a := VAddr(p) << PageShift
			if !bytes.Equal(view.ReadBytes(a, PageSize), refBytes(ref, a)) {
				w.failf("%s: page %d bytes differ", what, p)
			}
			if view.PageResident(p) != ref.PageResident(p) {
				w.failf("%s: page %d residency differs", what, p)
			}
		}
	}
}

func refBytes(ref *mapSpace, a VAddr) []byte {
	b := make([]byte, PageSize)
	ref.ReadAt(a, b)
	return b
}

func mappingsOf(ms []*Mapping) []mappingState {
	out := make([]mappingState, len(ms))
	for i, m := range ms {
		out[i] = mappingState{m.Start, m.Pages, m.Kind, m.Name}
	}
	return out
}

// compare returns the first difference in any observable between the two
// implementations.
func (w *diffWorld) compare() error {
	if w.err != nil {
		return w.err
	}
	for i, as := range w.spaces {
		ref := w.refs[i]
		w.same(fmt.Sprintf("space %d mappings", i), mappingsOf(as.mappings), mappingsOf(ref.mappings))
		w.same(fmt.Sprintf("space %d DirtySet", i), as.DirtySet(), ref.DirtySet())
		w.same(fmt.Sprintf("space %d ResidentPages", i), as.ResidentPages(), ref.ResidentPages())
		for p := PageOf(diffBase); p < PageOf(diffBase)+diffScan; p++ {
			got := [4]any{as.PageGen(p), as.PageDirty(p), as.PageResident(p), as.PageChecksum(p)}
			want := [4]any{ref.PageGen(p), ref.PageDirty(p), ref.PageResident(p), ref.PageChecksum(p)}
			w.same(fmt.Sprintf("space %d page %d (gen, dirty, resident, checksum)", i, p), got, want)
			if a := VAddr(p) << PageShift; as.Mapped(a) {
				if !bytes.Equal(as.ReadBytes(a, PageSize), refBytes(ref, a)) {
					w.failf("space %d page %d bytes differ", i, p)
				}
			}
		}
		if w.err != nil {
			return w.err
		}
	}
	w.same("RetainedPages", w.store.RetainedPages(), w.rstore.RetainedPages())
	return w.err
}

// Host-cost shape tests: allocation counts are deterministic, so they pin the
// page table's cost shape where timings could not.

func TestInPageAccessorsAllocateNothing(t *testing.T) {
	as := newSnapSpace(t, 2)
	as.WriteU64(snapBase, 1) // materialize the page first
	a := snapBase + 24
	var sink uint64
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ReadU64", func() { sink += as.ReadU64(a) }},
		{"WriteU64", func() { as.WriteU64(a, sink) }},
		{"ReadU32", func() { sink += uint64(as.ReadU32(a)) }},
		{"WriteU32", func() { as.WriteU32(a, uint32(sink)) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("in-page %s allocates %v times per call, want 0", c.name, n)
		}
	}
}

// TestSnapshotCommitAllocsFollowPagesWritten: a commit after writing k pages
// allocates the same on a space with 1k resident pages as on one with 8k
// under the same mappings, so commit allocations follow the pages written,
// not the pages resident.
func TestSnapshotCommitAllocsFollowPagesWritten(t *testing.T) {
	const mapped, k = 8192, 16
	commitAllocs := func(resident int) float64 {
		as := newSnapSpace(t, mapped)
		for i := 0; i < resident; i++ {
			as.WriteU64(snapBase+VAddr(i)*PageSize, uint64(i)+1)
		}
		st := NewSnapshotStore(as)
		st.Commit()
		round := uint64(0)
		return testing.AllocsPerRun(5, func() {
			round++
			for i := 0; i < k; i++ {
				as.WriteU64(snapBase+VAddr(i)*PageSize, round)
			}
			st.Commit()
		})
	}
	small, large := commitAllocs(1024), commitAllocs(mapped)
	t.Logf("commit after %d page writes: %v allocs", k, small)
	if small != large {
		t.Fatalf("commit after %d page writes: %v allocs at 1k resident pages, %v at 8k", k, small, large)
	}
}

// TestCloneAllocsFollowMappings: cloning a space with 1k resident pages
// allocates the same as cloning one with 8k under the same mappings, so a
// clone copies page tables, not pages.
func TestCloneAllocsFollowMappings(t *testing.T) {
	const mapped = 8192
	cloneAllocs := func(resident int) float64 {
		as := newSnapSpace(t, mapped)
		if _, err := as.Map(snapBase+2*mapped*PageSize, 16, KindMmap, "second"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < resident; i++ {
			as.WriteU64(snapBase+VAddr(i)*PageSize, uint64(i)+1)
		}
		return testing.AllocsPerRun(5, func() { as.Clone() })
	}
	small, large := cloneAllocs(1024), cloneAllocs(mapped)
	t.Logf("clone of two mappings: %v allocs", small)
	if small != large {
		t.Fatalf("clone: %v allocs at 1k resident pages, %v at 8k", small, large)
	}
}
