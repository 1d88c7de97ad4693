// Request-boundary checkpointing for the rewind-and-discard continuation
// policy (core.ModeRewind). The serving model calls BeginCheckpoint when a
// request enters the machine and either Commit (the request completed, in
// any way that keeps the instance) or Rewind (a memory error was detected;
// roll every visible mutation back and fail only this request).
//
// Representation: a unit-granularity copy-on-write undo log. Nothing is
// copied at BeginCheckpoint — the first mutation of each pre-existing unit
// after the checkpoint snapshots that unit's bytes, liveness, and pointer
// shadow into the log (NoteMutation; the checked store path and the few
// trusted fast paths that bypass it call this before writing). Units
// created after the checkpoint are stamped with its epoch so they are
// never logged: rolling them back means marking them dead, not restoring
// bytes.
//
// Rewind deliberately composes with the existing rollback machinery and
// the LookupCache coherence contract (fastpath.go):
//
//   - Stack state rolls back via UnwindTo (which bumps stackGen, so stale
//     stack cache entries cannot answer for re-pushed frames).
//   - Heap units allocated after the checkpoint are marked Dead but stay
//     in the heap slice. Only ReleaseTop removes heap units (bumping the
//     caches' heapStamp), and it refuses while a checkpoint is open, so
//     the heapLen a checkpoint records stays valid until its Commit or
//     Rewind. The address range rolled-back units occupy is not reused
//     (heapCur is not rolled back); a rewound request leaks address
//     space, not memory contract. Allocation counters (Stats) are likewise
//     monotonic across rewinds.
package mem

// savedUnit is one undo-log entry: the pre-checkpoint image of a unit.
type savedUnit struct {
	u      *Unit
	data   []byte
	dead   bool
	shOff  uint64
	shProv *Unit
	shadow map[uint64]*Unit
}

// Checkpoint captures the rollback point BeginCheckpoint established. It is
// only meaningful for the address space that created it, and only until the
// matching Commit or Rewind.
type Checkpoint struct {
	epoch         uint64
	sp            uint64
	heapLen       int
	heapCorrupted bool
	saved         []savedUnit
}

// BeginCheckpoint establishes a rollback point at the current state.
// Checkpoints do not nest: exactly one may be active per address space
// (the rewind policy checkpoints per top-level request call).
func (as *AddressSpace) BeginCheckpoint() *Checkpoint {
	if as.ckpt != nil {
		panic("mem: BeginCheckpoint with a checkpoint already active")
	}
	as.ckptEpoch++
	c := &Checkpoint{
		epoch:         as.ckptEpoch,
		sp:            as.sp,
		heapLen:       len(as.heap),
		heapCorrupted: as.heapCorrupted,
	}
	as.ckpt = c
	return c
}

// curEpoch is the stamp for newly created units: the active checkpoint's
// epoch, or 0 (never matches a checkpoint) when none is active.
func (as *AddressSpace) curEpoch() uint64 {
	if as.ckpt != nil {
		return as.ckpt.epoch
	}
	return 0
}

// NoteMutation records u in the active checkpoint's undo log before its
// first post-checkpoint mutation (data bytes, Dead flag, or pointer
// shadow). It is a no-op — one pointer compare — when no checkpoint is
// active or the unit is already logged or was created after the
// checkpoint. Every write path that can touch a pre-checkpoint unit must
// call it before mutating: the checked Store of the rewind accessor, the
// libc fast paths that write unit data directly, and Free.
func (as *AddressSpace) NoteMutation(u *Unit) {
	c := as.ckpt
	if c == nil || u == nil || u.ckptEpoch == c.epoch {
		return
	}
	u.ckptEpoch = c.epoch
	s := savedUnit{u: u, dead: u.Dead, shOff: u.shOff, shProv: u.shProv}
	s.data = append([]byte(nil), u.Data...)
	if len(u.shadow) > 0 {
		s.shadow = make(map[uint64]*Unit, len(u.shadow))
		for k, v := range u.shadow {
			s.shadow[k] = v
		}
	}
	c.saved = append(c.saved, s)
}

// Commit discards the checkpoint, keeping the current state. The address
// space is untouched; only the undo log is released.
func (as *AddressSpace) Commit(c *Checkpoint) {
	if as.ckpt != c {
		panic("mem: Commit of an inactive checkpoint")
	}
	as.ckpt = nil
	c.saved = nil
}

// Rewind restores the state captured at BeginCheckpoint: logged units get
// their saved bytes, liveness, and shadow back; units created after the
// checkpoint are marked dead (heap blocks and headers stay in the unit
// table — see the coherence note in the package comment); the stack
// unwinds to the checkpoint's stack pointer; and the heap-corruption flag
// is restored. heapCur and the Stats counters are intentionally not rolled
// back.
func (as *AddressSpace) Rewind(c *Checkpoint) {
	if as.ckpt != c {
		panic("mem: Rewind of an inactive checkpoint")
	}
	as.ckpt = nil
	for i := len(c.saved) - 1; i >= 0; i-- {
		s := c.saved[i]
		copy(s.u.Data, s.data)
		s.u.Dead = s.dead
		s.u.shOff, s.u.shProv, s.u.shadow = s.shOff, s.shProv, s.shadow
	}
	c.saved = nil
	for _, u := range as.heap[c.heapLen:] {
		u.Dead = true
		u.resetShadow()
	}
	as.heapCorrupted = c.heapCorrupted
	as.UnwindTo(c.sp)
}
