package mem

import (
	"fmt"
	"slices"
)

// Rewind domains give one request a byte-exact undo log over the address
// space, riding the soft-dirty infrastructure: while a domain is open, the
// first write to each page records the page's Frame value — its pre-image —
// and shares its bytes, so the write itself copies them (an untouched page
// needs no record — its bytes and tracking state are trivially unchanged,
// which is why lazy first-touch capture subsumes an eager dirty-set snapshot
// at domain entry). DiscardDomain puts every recorded Frame back — content,
// residency, and soft-dirty bit — so a faulting request rolls back exactly,
// including the delta-checksum baseline: a page that was clean before the
// request is clean again after the discard, and its restored bytes are the
// ones the cached checksum was verified against.
//
// Domains are a request-scoped, single-owner primitive: one domain per
// address space, never open across a preserve_exec (the driver closes it
// before any process-level restart).

// mapUndoKind tags one journaled mapping-level operation.
type mapUndoKind int

const (
	// undoMap records a Map performed inside the domain: discard unmaps it.
	undoMap mapUndoKind = iota
	// undoUnmap records an Unmap performed inside the domain: discard
	// re-inserts the mapping (its frames are restored by the page records —
	// Unmap touches every dropped page into the undo log first).
	undoUnmap
	// undoGrow records a Grow performed inside the domain: discard shrinks
	// the mapping back.
	undoGrow
)

// mapUndo is one journaled mapping-level operation.
type mapUndo struct {
	kind  mapUndoKind
	m     *Mapping
	extra int
}

// rewindDomain is the open domain's undo log: per-page pre-images (the zero
// Frame for a page that had no entry) plus a journal of mapping-level
// operations (heap growth maps new arenas and frees unmap large regions
// mid-request; rolling back the heap metadata without rolling back the
// mappings would leave the two out of sync).
type rewindDomain struct {
	pages   map[PageNum]Frame
	journal []mapUndo
}

// BeginRewindDomain opens a rewind domain. Only one may be open at a time.
func (as *AddressSpace) BeginRewindDomain() error {
	if as.domain != nil {
		return fmt.Errorf("mem: BeginRewindDomain: a domain is already open")
	}
	as.domain = &rewindDomain{pages: make(map[PageNum]Frame)}
	return nil
}

// DomainActive reports whether a rewind domain is open.
func (as *AddressSpace) DomainActive() bool { return as.domain != nil }

// DomainTouched returns how many pages the open domain has snapshotted.
func (as *AddressSpace) DomainTouched() int {
	if as.domain == nil {
		return 0
	}
	return len(as.domain.pages)
}

// CommitDomain closes the domain keeping every write, dropping the undo log.
// It returns the number of pages the domain had touched.
func (as *AddressSpace) CommitDomain() (int, error) {
	if as.domain == nil {
		return 0, fmt.Errorf("mem: CommitDomain: no open domain")
	}
	n := len(as.domain.pages)
	as.domain = nil
	return n, nil
}

// DiscardDomain closes the domain rolling every touched page back to its
// pre-image: bytes, residency, and soft-dirty bit. It returns the number of
// pages restored.
func (as *AddressSpace) DiscardDomain() (int, error) {
	if as.domain == nil {
		return 0, fmt.Errorf("mem: DiscardDomain: no open domain")
	}
	d := as.domain
	as.domain = nil // restores below must not re-enter the undo log
	// Mapping-level undo first, newest op first: mappings created inside the
	// domain are removed, removed ones re-inserted, grown ones shrunk. The
	// page restore below then rebuilds frame state against the restored
	// mapping layout.
	for i := len(d.journal) - 1; i >= 0; i-- {
		u := d.journal[i]
		switch u.kind {
		case undoMap:
			if err := as.Unmap(u.m.Start); err != nil {
				return 0, fmt.Errorf("mem: DiscardDomain: %w", err)
			}
		case undoUnmap:
			// The frames come back from the page records below: Unmap
			// touched every page it dropped.
			u.m.frames = make([]Frame, u.m.Pages)
			as.insert(u.m)
		case undoGrow:
			u.m.resize(u.m.Pages - u.extra)
		}
	}
	// Restore in page order, so the restamps below are deterministic.
	pages := make([]PageNum, 0, len(d.pages))
	for p := range d.pages {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	for _, p := range pages {
		m := as.FindMapping(VAddr(p) << PageShift)
		if m == nil {
			// Mapped or grown inside the domain and undone above: the page
			// had no frame before the domain either.
			continue
		}
		f := &m.frames[m.slot(p)]
		*f = d.pages[p]
		// The restore rewrites the page's bytes, so it is a content mutation
		// from any generation observer's point of view — an observer that
		// recorded the mid-domain stamp must not conclude "unchanged" now
		// that the pre-image is back. The soft-dirty bit, by contrast, is
		// rolled back: it belongs to the preserve baseline, which the
		// pre-image bytes still match. A page that had no entry gets none.
		if f.Gen != 0 {
			as.stamp(f)
		}
	}
	return len(d.pages), nil
}

// touch records page p, whose slot is f, into the open domain's undo log
// before its first mutation, sharing the slot's bytes with the record so the
// mutation copies them. Every write path calls it ahead of the write; it is a
// no-op when no domain is open or the page was already captured.
func (as *AddressSpace) touch(p PageNum, f *Frame) {
	if as.domain == nil {
		return
	}
	if _, done := as.domain.pages[p]; done {
		return
	}
	f.share()
	as.domain.pages[p] = *f
}
