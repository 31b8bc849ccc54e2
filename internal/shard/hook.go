package shard

// Write hooks — the replication and subscription taps. A serving
// primary (internal/server) installs hooks and receives every applied
// mutation: a hook runs under the owning shard's write lock,
// immediately after the mutation, so for any single point the
// hook-observed order equals the applied order. That is exactly the
// guarantee a sequenced operation log needs: ops on the same point are
// logged in apply order (replaying the log yields the same final
// state), while ops on different points — which commute — may
// interleave freely across shards.
//
// Several consumers can tap the same index (the replication oplog and
// the standing-query matcher both do), so hooks fan in: AddWriteHook
// registers one more observer and every applied mutation notifies all
// of them, in registration order. The hook list is copy-on-write behind
// an atomic pointer, so the write path pays one atomic load regardless
// of how many hooks are installed.
//
// Rebuild notifies once, after every shard has rebuilt; it carries no
// point. Replicas use it to rebuild too, keeping the block layout of
// primary and replica aligned when the write stream is quiescent.

import (
	"sync"

	"rsmi/internal/geom"
)

// WriteKind discriminates the mutations a write hook observes. The
// values are stable — they are the oplog's wire encoding.
type WriteKind uint8

const (
	// WriteInsert is an applied Insert.
	WriteInsert WriteKind = 1
	// WriteDelete is a Delete that found and removed its point (misses
	// are not observed — there is nothing to replicate).
	WriteDelete WriteKind = 2
	// WriteRebuild is a completed rolling rebuild (no point payload).
	WriteRebuild WriteKind = 3
)

// WriteOp is one observed mutation.
type WriteOp struct {
	Kind WriteKind
	P    geom.Point
}

// WriteHook observes applied mutations. Insert/Delete hooks run under
// the owning shard's write lock — keep them short (an in-memory log
// append); a slow hook serialises writes to that shard.
type WriteHook func(WriteOp)

// AddWriteHook registers h as one more write observer and returns a
// function that removes exactly it. Safe to call while the index
// serves; mutations in flight during the swap observe either the old or
// the new hook set. Removing is idempotent.
func (s *Sharded) AddWriteHook(h WriteHook) (remove func()) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	old := s.loadHooks()
	entry := &hookEntry{h: h}
	hooks := make([]*hookEntry, 0, len(old)+1)
	hooks = append(append(hooks, old...), entry)
	s.hook.Store(&hooks)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.hookMu.Lock()
			defer s.hookMu.Unlock()
			cur := s.loadHooks()
			next := make([]*hookEntry, 0, len(cur))
			for _, e := range cur {
				if e != entry {
					next = append(next, e)
				}
			}
			s.hook.Store(&next)
		})
	}
}

// loadHooks returns the current hook list (possibly nil). Callers that
// mutate must hold hookMu and store a fresh slice — entries are shared,
// slices never are.
func (s *Sharded) loadHooks() []*hookEntry {
	if p := s.hook.Load(); p != nil {
		return *p
	}
	return nil
}

// notify invokes every installed hook in registration order.
// Insert/Delete callers hold the owning shard's write lock.
func (s *Sharded) notify(op WriteOp) {
	if p := s.hook.Load(); p != nil {
		for _, e := range *p {
			e.h(op)
		}
	}
}

// hookEntry gives each registered hook an identity so AddWriteHook's
// remove function can unregister exactly its own hook (func values are
// not comparable).
type hookEntry struct{ h WriteHook }
