package mem

import "testing"

// A mutation logged via NoteMutation is undone by Rewind: data bytes, the
// Dead flag, and the pointer shadow all return to their checkpoint state.
func TestCheckpointRewindRestoresUnit(t *testing.T) {
	as := New()
	g := as.AllocGlobal("g", 16)
	copy(g.Data, "original")
	other := as.AllocGlobal("other", 8)
	g.SetShadow(8, other)

	c := as.BeginCheckpoint()
	as.NoteMutation(g)
	copy(g.Data, "clobber!")
	g.SetShadow(8, nil)
	g.SetShadow(0, g)
	as.Rewind(c)

	if string(g.Data[:8]) != "original" {
		t.Errorf("data = %q, want %q", g.Data[:8], "original")
	}
	if g.GetShadow(8) != other {
		t.Errorf("shadow[8] = %v, want other", g.GetShadow(8))
	}
	if g.GetShadow(0) != nil {
		t.Errorf("shadow[0] = %v, want nil", g.GetShadow(0))
	}
}

// NoteMutation logs each unit at most once per checkpoint, and the first
// saved image (not a later intermediate) is what Rewind restores.
func TestCheckpointFirstImageWins(t *testing.T) {
	as := New()
	g := as.AllocGlobal("g", 8)
	copy(g.Data, "AAAAAAAA")

	c := as.BeginCheckpoint()
	as.NoteMutation(g)
	copy(g.Data, "BBBBBBBB")
	as.NoteMutation(g) // second note: must not snapshot the B state
	copy(g.Data, "CCCCCCCC")
	if n := len(c.saved); n != 1 {
		t.Fatalf("undo log has %d entries, want 1", n)
	}
	as.Rewind(c)
	if string(g.Data) != "AAAAAAAA" {
		t.Errorf("data = %q, want AAAAAAAA", g.Data)
	}
}

// Heap blocks allocated after the checkpoint are rolled back by marking
// them dead; they stay in the unit table (the LookupCache coherence
// contract forbids removing non-stack units) and their address range is
// not reused.
func TestCheckpointRewindKillsNewAllocations(t *testing.T) {
	as := New()
	pre, fault := as.Malloc(32)
	if fault != nil {
		t.Fatal(fault)
	}
	c := as.BeginCheckpoint()
	post, fault := as.Malloc(32)
	if fault != nil {
		t.Fatal(fault)
	}
	as.Rewind(c)

	if pre.Dead {
		t.Error("pre-checkpoint block marked dead")
	}
	if !post.Dead {
		t.Error("post-checkpoint block still live")
	}
	if got := as.FindUnit(post.Base); got != post {
		t.Errorf("FindUnit(post) = %v, want the dead unit itself", got)
	}
	next, fault := as.Malloc(32)
	if fault != nil {
		t.Fatal(fault)
	}
	if next.Base < post.End() {
		t.Errorf("rewound address range reused: next at %#x overlaps post [%#x,%#x)",
			next.Base, post.Base, post.End())
	}
}

// Freeing a pre-checkpoint block inside the checkpoint is undone: after
// Rewind the block (and its header) are live again and can be freed for
// real.
func TestCheckpointRewindUndoesFree(t *testing.T) {
	as := New()
	blk, fault := as.Malloc(64)
	if fault != nil {
		t.Fatal(fault)
	}
	c := as.BeginCheckpoint()
	if f := as.Free(blk.Base); f != nil {
		t.Fatalf("free: %v", f)
	}
	if !blk.Dead {
		t.Fatal("free did not mark the block dead")
	}
	as.Rewind(c)
	if blk.Dead {
		t.Error("rewind did not revive the freed block")
	}
	if f := as.Free(blk.Base); f != nil {
		t.Errorf("free after rewind: %v", f)
	}
}

// Stack frames pushed after the checkpoint are unwound by Rewind, bumping
// stackGen so stale cache entries cannot answer for re-pushed frames.
func TestCheckpointRewindUnwindsStack(t *testing.T) {
	as := New()
	sp := as.SP()
	gen := as.stackGen
	c := as.BeginCheckpoint()
	f, fault := as.PushFrame(&FrameSpec{Canary: "fn", Size: 32, Locals: []LocalSpec{{Name: "x", Off: 0, Size: 32}}})
	if fault != nil {
		t.Fatal(fault)
	}
	local := f.Local(0)
	as.Rewind(c)
	if as.SP() != sp {
		t.Errorf("SP = %#x, want %#x", as.SP(), sp)
	}
	if !local.Dead {
		t.Error("post-checkpoint stack unit still live")
	}
	if as.stackGen == gen {
		t.Error("stackGen not bumped by rewind")
	}
}

// Commit keeps the mutated state, and a later checkpoint re-logs the same
// unit (the epoch stamp distinguishes checkpoints).
func TestCheckpointCommitThenNewCheckpoint(t *testing.T) {
	as := New()
	g := as.AllocGlobal("g", 8)
	copy(g.Data, "AAAAAAAA")

	c1 := as.BeginCheckpoint()
	as.NoteMutation(g)
	copy(g.Data, "BBBBBBBB")
	as.Commit(c1)
	if string(g.Data) != "BBBBBBBB" {
		t.Fatalf("commit lost the mutation: %q", g.Data)
	}

	c2 := as.BeginCheckpoint()
	as.NoteMutation(g)
	copy(g.Data, "CCCCCCCC")
	as.Rewind(c2)
	if string(g.Data) != "BBBBBBBB" {
		t.Errorf("data = %q, want the committed BBBBBBBB", g.Data)
	}
}

// Units created during a checkpoint are never logged: NoteMutation on them
// is a no-op and rollback handles them by liveness, not byte restore.
func TestCheckpointNewUnitsNotLogged(t *testing.T) {
	as := New()
	c := as.BeginCheckpoint()
	blk, fault := as.Malloc(16)
	if fault != nil {
		t.Fatal(fault)
	}
	as.NoteMutation(blk)
	g := as.AllocGlobal("g", 8)
	as.NoteMutation(g)
	if n := len(c.saved); n != 0 {
		t.Errorf("undo log has %d entries for post-checkpoint units, want 0", n)
	}
	as.Commit(c)
}

// The heap-corruption flag rolls back with the checkpoint.
func TestCheckpointRewindRestoresHeapCorrupted(t *testing.T) {
	as := New()
	blk, fault := as.Malloc(16)
	if fault != nil {
		t.Fatal(fault)
	}
	c := as.BeginCheckpoint()
	// Smash the header magic (as an OOB write in Standard mode would) and
	// let Free detect it.
	hdr := as.FindUnit(blk.Base - 1)
	as.NoteMutation(hdr)
	hdr.Data[0] ^= 0xff
	if f := as.Free(blk.Base); f == nil || f.Kind != FaultHeapCorrupt {
		t.Fatalf("free on smashed header = %v, want heap corruption", f)
	}
	if !as.HeapCorrupted() {
		t.Fatal("corruption not flagged")
	}
	as.Rewind(c)
	if as.HeapCorrupted() {
		t.Error("rewind did not clear the heap-corruption flag")
	}
	if f := as.Free(blk.Base); f != nil {
		t.Errorf("free after rewind: %v", f)
	}
}

// Checkpoints do not nest, and Commit/Rewind reject checkpoints that are
// not the active one.
func TestCheckpointMisuse(t *testing.T) {
	as := New()
	c := as.BeginCheckpoint()
	mustPanic(t, "nested BeginCheckpoint", func() { as.BeginCheckpoint() })
	as.Commit(c)
	mustPanic(t, "double Commit", func() { as.Commit(c) })
	mustPanic(t, "Rewind after Commit", func() { as.Rewind(c) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
