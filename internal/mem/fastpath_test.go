package mem

import (
	"math/rand"
	"testing"
)

// refFindUnit is the obviously-correct reference lookup: a linear scan of
// every unit table. FindUnit (region-gated binary searches) and
// FindUnitCached (one-entry caches on top) must agree with it exactly —
// including returning dead heap units and excluding popped stack units,
// which are removed from the table.
func refFindUnit(as *AddressSpace, addr uint64) *Unit {
	for _, tbl := range [][]*Unit{as.literals, as.globals, as.heap, as.stack} {
		for _, u := range tbl {
			if u.Contains(addr) {
				return u
			}
		}
	}
	return nil
}

// TestFindUnitCacheConsistency drives a randomized sequence of every
// operation that mutates the unit-at-address mapping — malloc, free,
// release of the topmost block, literal interning, global allocation,
// frame push, frame pop, and multi-frame unwind — while a set of
// LookupCaches persists across all of
// them, exactly as the interpreter's per-machine and per-site caches do.
// After every mutation it cross-checks FindUnit and FindUnitCached against
// the linear-scan reference on a batch of probe addresses biased toward
// unit boundaries (Base-1, Base, interior, End). Any stale cache entry
// surviving a free, release, pop, or unwind shows up as a pointer-identity
// mismatch.
//
// Run under -race this also guards the cache fast path against hidden
// shared state (the caches and tables must be confined to one goroutine by
// construction, not by luck).
func TestFindUnitCacheConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf0cc))
	as := New()

	// Persistent caches, reused round-robin across all probes so entries
	// routinely survive many mutations — the scenario the stamp-based
	// invalidation exists for.
	caches := make([]LookupCache, 8)

	type pushed struct {
		f      *Frame
		saveSP uint64 // SP before the push: UnwindTo target discarding it
	}
	var frames []pushed
	var liveHeap []uint64 // base addresses of live heap blocks

	// probeAddrs accumulates interesting addresses: boundaries of every
	// unit ever created (live, freed, or popped) plus fixed unmapped spots.
	probeAddrs := []uint64{0, 0x100, LiteralBase - 1, GlobalBase - 1,
		HeapBase - 1, heapLimit, StackTop, StackTop - 1}
	noteUnit := func(u *Unit) {
		probeAddrs = append(probeAddrs,
			u.Base-1, u.Base, u.Base+u.Size/2, u.End()-1, u.End())
	}

	check := func(step int) {
		for i := 0; i < 16; i++ {
			addr := probeAddrs[rng.Intn(len(probeAddrs))]
			want := refFindUnit(as, addr)
			if got := as.FindUnit(addr); got != want {
				t.Fatalf("step %d: FindUnit(0x%x) = %v, reference = %v",
					step, addr, got, want)
			}
			c := &caches[i%len(caches)]
			if got := as.FindUnitCached(addr, c); got != want {
				t.Fatalf("step %d: FindUnitCached(0x%x) = %v, reference = %v (cache %+v, stackGen %d)",
					step, addr, got, want, *c, as.stackGen)
			}
		}
	}

	lit := 0
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // malloc
			u, fault := as.Malloc(uint64(1 + rng.Intn(64)))
			if fault != nil {
				t.Fatalf("step %d: malloc: %v", step, fault)
			}
			noteUnit(u)
			if rng.Intn(3) == 0 {
				// Let the caches see the block, then release it so the
				// next malloc reuses its addresses (a request argument).
				check(step)
				if !as.ReleaseTop(u) {
					t.Fatalf("step %d: topmost block not released", step)
				}
				break
			}
			liveHeap = append(liveHeap, u.Base)
		case op < 5: // free a random live block
			if len(liveHeap) == 0 {
				continue
			}
			i := rng.Intn(len(liveHeap))
			if fault := as.Free(liveHeap[i]); fault != nil {
				t.Fatalf("step %d: free: %v", step, fault)
			}
			liveHeap = append(liveHeap[:i], liveHeap[i+1:]...)
		case op < 8: // push a frame with a few locals
			nloc := rng.Intn(4)
			locals := make([]LocalSpec, nloc)
			for l := range locals {
				locals[l] = LocalSpec{Name: "v", Off: uint64(l) * 16,
					Size: uint64(1 + rng.Intn(16))}
			}
			saveSP := as.SP()
			f, fault := as.PushFrame("fn", uint64(16*nloc+8), locals)
			if fault != nil {
				t.Fatalf("step %d: push: %v", step, fault)
			}
			frames = append(frames, pushed{f: f, saveSP: saveSP})
			noteUnit(&f.units[0])
			for i := len(f.units) - 1; i >= 1; i-- {
				noteUnit(&f.units[i])
			}
		case op < 9: // pop the top frame
			if len(frames) == 0 {
				continue
			}
			p := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			if fault := as.PopFrame(p.f); fault != nil {
				t.Fatalf("step %d: pop: %v", step, fault)
			}
		default: // unwind several frames, or intern a literal/global
			if len(frames) > 1 && rng.Intn(2) == 0 {
				k := rng.Intn(len(frames))
				as.UnwindTo(frames[k].saveSP)
				frames = frames[:k]
			} else if rng.Intn(2) == 0 {
				lit++
				noteUnit(as.InternLiteral(string(rune('a'+lit%26)) + "\x00"))
			} else {
				noteUnit(as.AllocGlobal("g", uint64(1+rng.Intn(32))))
			}
		}
		check(step)
	}
}

// TestReleasedArgumentNeverAnswers is the request-argument scenario: a
// site cache filled on one request's argument block must not answer for
// the next request's argument, which ReleaseTop lets Malloc place at the
// same address. Literal and global entries stay immortal across the
// release; stack entries are unaffected by it.
func TestReleasedArgumentNeverAnswers(t *testing.T) {
	as := New()
	g := as.AllocGlobal("g", 8)
	var site, gsite, ssite LookupCache
	f, fault := as.PushFrame("fn", 16, []LocalSpec{{Name: "x", Size: 8}})
	if fault != nil {
		t.Fatal(fault)
	}
	if as.FindUnitCached(g.Base, &gsite) != g || as.FindUnitCached(f.Base, &ssite) == nil {
		t.Fatal("setup lookups failed")
	}
	u1, fault := as.Malloc(32)
	if fault != nil {
		t.Fatal(fault)
	}
	if got := as.FindUnitCached(u1.Base+4, &site); got != u1 {
		t.Fatalf("lookup = %v, want the first argument", got)
	}
	units, top := as.HeapExtent()
	if !as.ReleaseTop(u1) {
		t.Fatal("topmost argument not released")
	}
	if !u1.Dead {
		t.Error("released unit not marked dead")
	}
	if as.Probe(&site, u1.Base+4) != nil {
		t.Fatal("cache answers with a released unit")
	}
	if n, cur := as.HeapExtent(); n != units-2 || cur != HeapBase {
		t.Errorf("after release: %d heap units, top 0x%x; want %d, 0x%x", n, cur, units-2, uint64(HeapBase))
	}
	u2, fault := as.Malloc(32)
	if fault != nil {
		t.Fatal(fault)
	}
	if u2.Base != u1.Base {
		t.Fatalf("next argument at 0x%x, want the released address 0x%x", u2.Base, u1.Base)
	}
	if n, cur := as.HeapExtent(); n != units || cur != top {
		t.Errorf("after reuse: %d heap units, top 0x%x; want %d, 0x%x", n, cur, units, top)
	}
	if got := as.FindUnitCached(u2.Base+4, &site); got != u2 {
		t.Fatalf("lookup after reuse = %v, want the next argument", got)
	}
	for i, b := range u2.Data {
		if b != 0 {
			t.Fatalf("reused block byte %d = %#x, want zeroed memory", i, b)
		}
	}
	if as.Probe(&gsite, g.Base) != g {
		t.Error("global cache entry invalidated by a heap release")
	}
	if as.Probe(&ssite, f.Base) == nil {
		t.Error("stack cache entry invalidated by a heap release")
	}
}

// TestReleaseTopRefuses pins when a block stays allocated: it is not the
// topmost heap block, a checkpoint is open, or the address space was
// released. A smashed header does not stop the release, and the
// heap-corruption flag survives it.
func TestReleaseTopRefuses(t *testing.T) {
	as := New()
	a, _ := as.Malloc(16) // no alignment gap: b's header follows a directly
	b, _ := as.Malloc(8)
	if as.ReleaseTop(a) {
		t.Error("released a block with another allocated above it")
	}
	c := as.BeginCheckpoint()
	if as.ReleaseTop(b) {
		t.Error("released a block while a checkpoint is open")
	}
	as.Commit(c)
	// An overflow of a smashes b's header (Standard-mode RawWrite).
	if f := as.RawWrite(a.Base, make([]byte, 24)); f != nil {
		t.Fatal(f)
	}
	if !as.HeapCorrupted() {
		t.Fatal("header overwrite not detected")
	}
	if !as.ReleaseTop(b) {
		t.Error("block with a smashed header not released")
	}
	if !as.HeapCorrupted() {
		t.Error("release cleared the heap-corruption flag")
	}
	if _, f := as.Malloc(8); f == nil || f.Kind != FaultHeapCorrupt {
		t.Errorf("malloc after release on a corrupted heap = %v, want heap corruption", f)
	}
	as.Release()
	if as.ReleaseTop(a) {
		t.Error("released a block of a released address space")
	}
}

// TestFindUnitCachedAgainstUncached is the pure equivalence property on a
// fixed populated address space: for any address, FindUnitCached through an
// arbitrarily reused cache returns the identical unit pointer as FindUnit.
func TestFindUnitCachedAgainstUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	as := New()
	var addrs []uint64
	for i := 0; i < 64; i++ {
		u, fault := as.Malloc(uint64(1 + rng.Intn(128)))
		if fault != nil {
			t.Fatal(fault)
		}
		addrs = append(addrs, u.Base, u.Base-1, u.End())
	}
	for i := 0; i < 16; i++ {
		f, fault := as.PushFrame("fn", 64, []LocalSpec{{Name: "x", Off: 0, Size: 48}})
		if fault != nil {
			t.Fatal(fault)
		}
		addrs = append(addrs, f.Base, f.Base+17, f.units[0].Base)
	}
	var c LookupCache
	for i := 0; i < 100000; i++ {
		addr := addrs[rng.Intn(len(addrs))] + uint64(rng.Intn(8))
		want := as.FindUnit(addr)
		if got := as.FindUnitCached(addr, &c); got != want {
			t.Fatalf("FindUnitCached(0x%x) = %v, FindUnit = %v", addr, got, want)
		}
	}
}
