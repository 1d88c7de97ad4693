// Unit-lookup caching and cross-instance memory pooling: the wall-clock
// fast path under the simulated-cycle cost model. Nothing in this file
// changes what FindUnit returns or what the cost model charges — it only
// makes the Go-level implementation cheaper.
//
// Cache coherence contract. A LookupCache memoizes one FindUnit result and
// must never serve an answer that differs from an uncached FindUnit call.
// The address space changes the unit-at-address mapping in exactly four
// ways:
//
//   - Units are ADDED (AllocGlobal, InternLiteral, Malloc, PushFrame) at
//     addresses where FindUnit previously returned nil. Caches never store
//     nil results, so additions need no invalidation.
//   - Heap units are FREED (Free) — but a freed block stays in the heap
//     slice with Dead=true, and FindUnit returns dead units. A cache hit on
//     a freed unit returns the exact same *Unit an uncached lookup would,
//     so Free needs no invalidation either. (Policy-level liveness checks
//     read u.Dead from the unit itself, never from the cache.)
//   - Stack units are REMOVED (PopFrame, UnwindTo), and their address
//     ranges are reused by later frames: a cached unit of a popped frame
//     must not answer for a re-pushed frame at the same address. Both
//     removal paths bump stackGen, which stamps every cached stack unit; a
//     stale stamp forces the slow path.
//   - The topmost heap block and its header are RELEASED (ReleaseTop: a
//     host-allocated request argument at the end of its request), and the
//     next Malloc reuses their addresses. ReleaseTop bumps heapStamp,
//     which stamps every cached heap and heap-header unit, so a released
//     unit can never answer for the block that replaces it.
//
// Literal and global units are immortal within an address space (never
// removed, at stable addresses), so their cache entries carry an immortal
// stamp. Heap entries survive arbitrarily many frame pops and stack
// entries arbitrarily many releases — a heap-pointer site is not
// invalidated by call/return traffic, only by the (at most a few per
// request) argument releases.
package mem

import "sync"

// immortalStamp marks a cached unit that can never be unmapped (literal,
// global). 1<<63 generations of frame pops would be needed to collide
// with a real stackGen value.
const immortalStamp = ^uint64(0)

// heapStampBase is the initial heapStamp. Its top bit keeps every heap
// stamp disjoint from stackGen values, and 1<<63-1 releases would be
// needed to reach immortalStamp.
const heapStampBase = uint64(1) << 63

// LookupCache is a one-entry unit-lookup cache: the monomorphic inline
// cache consulted before FindUnit. The zero value is an empty cache. A
// cache belongs to one AddressSpace; it is not safe for concurrent use
// (machines are single-goroutine, see the Instance contract).
type LookupCache struct {
	u     *Unit
	stamp uint64
}

// Probe returns the cached unit if it still answers for addr, or nil on a
// cache miss. A non-nil result is exactly what FindUnit(addr) would return.
func (as *AddressSpace) Probe(c *LookupCache, addr uint64) *Unit {
	u := c.u
	if u != nil && addr >= u.Base && addr < u.Base+u.Size &&
		(c.stamp == immortalStamp || c.stamp == as.heapStamp || c.stamp == as.stackGen) {
		return u
	}
	return nil
}

// fill records a FindUnit result in the cache. Nil results are never
// cached (see the coherence contract above: that is what makes unit
// addition invalidation-free).
func (as *AddressSpace) fill(c *LookupCache, u *Unit) {
	if u == nil {
		return
	}
	c.u = u
	switch u.Kind {
	case KindStack, KindStackGuard:
		c.stamp = as.stackGen
	case KindHeap, KindHeapHeader:
		c.stamp = as.heapStamp
	default:
		c.stamp = immortalStamp
	}
}

// FindUnitCached is FindUnit behind a one-entry cache: identical results,
// no table search on a hit.
func (as *AddressSpace) FindUnitCached(addr uint64, c *LookupCache) *Unit {
	if u := as.Probe(c, addr); u != nil {
		return u
	}
	u := as.FindUnit(addr)
	as.fill(c, u)
	return u
}

// FillCache records u (a prior FindUnit(addr) result) in c, for callers
// that consult several cache layers before one shared slow lookup.
func (as *AddressSpace) FillCache(c *LookupCache, u *Unit) { as.fill(c, u) }

// --- Cross-instance memory pooling ---
//
// The serving engine's availability mechanism replaces crashed instances,
// and under attack (§4.3.2) the Standard/BoundsCheck pools respawn on
// nearly every request. Each respawn used to allocate a fresh stack arena
// (1 MiB) and fresh backing for every global and heap block; pooling those
// buffers across respawns removes the dominant allocation cost of a cold
// start. Buffers are zeroed on reuse, so a pooled instance is
// indistinguishable from a cold one.

// slabSize is the granularity of pooled data-backing slabs. Globals,
// literals, and heap blocks carve their Data slices out of slabs.
const slabSize = 64 << 10

var arenaPool = sync.Pool{New: func() any { return new([]byte) }}

var slabPool = sync.Pool{New: func() any { return new([]byte) }}

// getArena returns a zeroed stack arena of at least size bytes.
func getArena(size uint64) []byte {
	p := arenaPool.Get().(*[]byte)
	if uint64(cap(*p)) < size {
		return make([]byte, size)
	}
	b := (*p)[:size]
	clear(b)
	return b
}

// getSlab returns a zeroed slab of exactly slabSize bytes.
func getSlab() []byte {
	p := slabPool.Get().(*[]byte)
	if cap(*p) < slabSize {
		return make([]byte, slabSize)
	}
	b := (*p)[:slabSize]
	clear(b)
	return b
}

// alloc carves a zeroed n-byte backing slice out of the current slab,
// starting a new slab when the current one is full. Oversized requests get
// a dedicated (unpooled) allocation.
func (as *AddressSpace) alloc(n uint64) []byte {
	if n > slabSize {
		return make([]byte, n)
	}
	if uint64(len(as.slab))-as.slabOff < n {
		as.slab = getSlab()
		as.slabs = append(as.slabs, as.slab)
		as.slabOff = 0
	}
	off := as.slabOff
	as.slabOff += n
	return as.slab[off : off+n : off+n]
}

// Release returns the address space's pooled buffers (stack arena, data
// slabs) for reuse by a future instance. The address space must not be
// used afterwards: every unit's Data may alias a recycled buffer. The
// serving engine calls this when it retires a crashed instance; Release on
// an already-released space is a no-op.
func (as *AddressSpace) Release() {
	if as.released {
		return
	}
	as.released = true
	if cap(as.stackArena) >= int(DefaultStackSize) {
		a := as.stackArena
		arenaPool.Put(&a)
	}
	as.stackArena = nil
	for i := range as.slabs {
		s := as.slabs[i]
		slabPool.Put(&s)
	}
	as.slabs = nil
	as.slab = nil
	// Drop the unit tables so freed units do not pin recycled slabs'
	// backing arrays through their Data slices.
	as.literals, as.globals, as.heap, as.stack = nil, nil, nil, nil
	as.internTable = nil
}
