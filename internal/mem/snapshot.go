package mem

import (
	"fmt"
	"sync"
)

// SnapshotStore manages MVCC versions of one address space so concurrent
// readers can serve lock-free off an immutable view while a single writer
// advances the next version (after gostore's llrb/bogn snapshot lifecycle).
//
// Commit freezes the current contents into a SnapshotVersion whose view is a
// Clone of the live space: a copy of every page table, sharing each frame's
// bytes with the live space. Shared bytes are read-only — the live space's
// next write to such a page copies it first (Frame.materialize) — so later
// writes, PreserveExec page moves, or rewind-domain restores on the live space
// can not tear a published snapshot. A commit copies no page bytes; the
// writer copies each page it writes once after each commit, so the bytes
// copied are proportional to the pages written between commits.
//
// Open returns the latest committed version in O(1) (a refcount bump under
// the store mutex; the mutex handoff is also the happens-before edge that
// publishes the frozen frames to reader goroutines). Release drops the ref;
// a superseded version retires — its frame table is dropped so preserved
// pages don't leak — the moment its last reader releases it. The latest
// version is always retained: Open hands it out, and the next Commit counts
// its changes against it.
//
// One store is bound to one AddressSpace for its whole life. Within a single
// space, generation stamps only ever increase, which is what makes Changed
// (stamps newer than the previous version's MaxGen) exact; after a restart or
// migration installs a new address space the caller must create a fresh store
// (its first Commit counts every page as changed).
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
	// maxGen is the space's write counter at commit, which no frame stamp
	// exceeds; no frame in a frozen view may ever exceed it.
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
	var since uint64 // pages stamped after it changed since the previous version
	if prev != nil {
		since = prev.maxGen
	}
	s.nextSeq++
	v := &SnapshotVersion{seq: s.nextSeq, view: s.as.Clone(), maxGen: s.as.writeGen}
	for _, m := range v.view.mappings {
		for i := range m.frames {
			if m.frames[i].Gen > since {
				v.changed++
			}
		}
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
// reference goes; the latest version is always retained. Safe to call from
// any goroutine.
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

// RetainedPages counts the distinct resident page versions held across all
// live versions — the memory cost of the version set. A page whose stamp is
// the same in two versions has the same bytes in both, so it counts once.
func (s *SnapshotStore) RetainedPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[[2]uint64]struct{}) // page number, stamp
	for _, v := range s.live {
		for _, m := range v.view.mappings {
			for i := range m.frames {
				if f := &m.frames[i]; f.Data != nil {
					seen[[2]uint64{uint64(PageOf(m.Start)) + uint64(i), f.Gen}] = struct{}{}
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

// Changed is the number of pages stamped since the previous commit — the
// pages whose bytes this version does not share with its predecessor.
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
			if f.Gen > v.maxGen {
				return fmt.Errorf("mem: snapshot v%d page %d gen %d exceeds commit horizon %d (live frame leaked into frozen view)",
					v.seq, PageOf(m.Start)+PageNum(i), f.Gen, v.maxGen)
			}
		}
	}
	return nil
}
