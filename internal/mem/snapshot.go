package mem

import (
	"bytes"
	"fmt"
	"sync"
)

// SnapshotStore manages MVCC versions of one address space so concurrent
// readers can serve lock-free off an immutable view while a single writer
// advances the next version (after gostore's llrb/bogn snapshot lifecycle).
//
// Commit freezes the current contents into a SnapshotVersion whose view is a
// plain *AddressSpace built from *fresh* Frame copies — never aliases of the
// live frames — so later writes, PreserveExec page moves, or rewind-domain
// restores on the live space can not tear a published snapshot. The view
// keeps one frozen frame for every live frame entry: a copy of the bytes for
// a resident page, a Frame with only Gen for a non-resident one. Pages whose
// write-generation stamp is unchanged since the previous version share that
// version's frozen frame instead of being re-copied, so the bytes copied and
// the frames allocated are proportional to the pages written since the last
// commit; the rest of a commit is one walk over the page table.
//
// Open returns the latest committed version in O(1) (a refcount bump under
// the store mutex; the mutex handoff is also the happens-before edge that
// publishes the frozen frames to reader goroutines). Release drops the ref;
// a superseded version retires — its frame table is dropped so preserved
// pages don't leak — the moment its last reader releases it. The latest
// version is always retained as the sharing base for the next Commit.
//
// One store is bound to one AddressSpace for its whole life. Within a single
// space, per-page generation stamps only ever increase, which is what makes
// share-by-generation sound; after a restart or migration installs a new
// address space the caller must create a fresh store (the first Commit then
// does a full copy).
type SnapshotStore struct {
	mu sync.Mutex
	as *AddressSpace

	latest  *SnapshotVersion
	live    []*SnapshotVersion // committed, not yet retired (includes latest)
	nextSeq uint64
	retired int
}

// SnapshotVersion is one immutable committed version.
type SnapshotVersion struct {
	seq  uint64
	view *AddressSpace
	// maxGen is the highest generation visible at commit (write counter and
	// frame stamps both); no frame in a frozen view may ever exceed it.
	maxGen  uint64
	changed int
	refs    int
	retired bool
}

// NewSnapshotStore binds a store to one live address space.
func NewSnapshotStore(as *AddressSpace) *SnapshotStore {
	return &SnapshotStore{as: as}
}

// Space returns the live address space the store is bound to.
func (s *SnapshotStore) Space() *AddressSpace { return s.as }

// Commit freezes the current state of the space as a new version and returns
// it. Must be called from the writer (the space must be quiescent for the
// duration of the call). The previous latest retires immediately if no
// reader holds it.
func (s *SnapshotStore) Commit() *SnapshotVersion {
	s.mu.Lock()
	defer s.mu.Unlock()

	prev := s.latest
	s.nextSeq++
	v := &SnapshotVersion{
		seq:    s.nextSeq,
		view:   &AddressSpace{ASLRBase: s.as.ASLRBase, mappings: make([]*Mapping, len(s.as.mappings))},
		maxGen: s.as.writeGen,
	}
	prevView := &AddressSpace{} // the first commit shares nothing
	if prev != nil {
		prevView = prev.view
	}
	for i, m := range s.as.mappings {
		nm := *m
		nm.frames = make([]*Frame, len(m.frames))
		var pm *Mapping // prevView's mapping holding the current page
		for j, f := range m.frames {
			if f == nil {
				continue // no entry: the view reads zeros, like the live space
			}
			v.maxGen = max(v.maxGen, f.Gen)
			addr := m.Start + VAddr(j)*PageSize
			if pm == nil || !pm.Contains(addr) {
				pm = prevView.FindMapping(addr)
			}
			// Unchanged since the previous version: share its frozen frame.
			// Residency can't change without a stamp.
			if pm != nil {
				if pf := pm.frames[pm.slot(PageOf(addr))]; pf != nil && pf.Gen == f.Gen {
					nm.frames[j] = pf
					continue
				}
			}
			v.changed++
			nm.frames[j] = &Frame{Data: bytes.Clone(f.Data), Gen: f.Gen}
		}
		v.view.mappings[i] = &nm
	}

	s.latest = v
	s.live = append(s.live, v)
	if prev != nil && prev.refs == 0 {
		s.retire(prev)
	}
	return v
}

// Open returns the latest committed version with a reference held, or nil if
// nothing has been committed yet. O(1). Safe to call from any goroutine.
func (s *SnapshotStore) Open() *SnapshotVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == nil {
		return nil
	}
	s.latest.refs++
	return s.latest
}

// Release drops one reference. A superseded version retires when its last
// reference goes; the latest version is retained as the next commit's
// sharing base. Safe to call from any goroutine.
func (s *SnapshotStore) Release(v *SnapshotVersion) {
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

// retire drops a version's frame table and removes it from the live list.
// Caller holds s.mu.
func (s *SnapshotStore) retire(v *SnapshotVersion) {
	if v.retired {
		return
	}
	v.retired = true
	v.view = nil
	for i, lv := range s.live {
		if lv == v {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	s.retired++
}

// LiveVersions reports how many committed versions are still retained.
func (s *SnapshotStore) LiveVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// RetiredVersions reports how many versions have been retired over the
// store's life.
func (s *SnapshotStore) RetiredVersions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired
}

// RetainedPages counts the distinct frozen resident frames held across all
// live versions — the real memory cost of the version set (shared frames
// count once).
func (s *SnapshotStore) RetainedPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[*Frame]struct{})
	for _, v := range s.live {
		for _, m := range v.view.mappings {
			for _, f := range m.frames {
				if f != nil && f.Data != nil {
					seen[f] = struct{}{}
				}
			}
		}
	}
	return len(seen)
}

// View returns the frozen address space. Reads on it are pure and safe from
// any number of goroutines; it must never be written.
func (v *SnapshotVersion) View() *AddressSpace { return v.view }

// Seq is the version's commit sequence number (1 for the first commit).
func (v *SnapshotVersion) Seq() uint64 { return v.seq }

// MaxGen is the highest write-generation stamp visible at commit time.
func (v *SnapshotVersion) MaxGen() uint64 { return v.maxGen }

// Changed is the number of pages this commit copied fresh (its incremental
// cost; the rest were shared with the predecessor).
func (v *SnapshotVersion) Changed() int { return v.changed }

// CheckFrozen is the stale-snapshot oracle: every frame in the frozen view
// must carry a generation stamp no newer than the version's commit horizon.
// A violation means a live frame leaked into the view (a post-snapshot write
// became visible to readers).
func (v *SnapshotVersion) CheckFrozen() error {
	view := v.view
	if view == nil {
		return fmt.Errorf("mem: snapshot v%d already retired", v.seq)
	}
	for _, m := range view.mappings {
		for i, f := range m.frames {
			if f != nil && f.Gen > v.maxGen {
				return fmt.Errorf("mem: snapshot v%d page %d gen %d exceeds commit horizon %d (live frame leaked into frozen view)",
					v.seq, PageOf(m.Start)+PageNum(i), f.Gen, v.maxGen)
			}
		}
	}
	return nil
}
