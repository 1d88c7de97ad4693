// Package mem implements the simulated address space the focc runtime
// executes in: data units (every global, string literal, heap block, and
// stack frame is one unit), an object table mapping addresses to units (the
// Jones–Kelly table the paper's checking scheme is built on), a contiguous
// stack arena with per-frame canaries, and a bump-allocated heap with block
// headers.
//
// The layout is deliberately realistic in the ways the paper's evaluation
// depends on: in the unsafe Standard mode, out-of-bounds writes really do
// land in neighbouring heap blocks, heap block headers, stack canaries, or
// unmapped gaps — producing heap corruption aborts, stack smashes, and
// segmentation violations mechanically rather than by assertion.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Region base addresses. Gaps between regions are unmapped.
const (
	LiteralBase = 0x1000_0000
	GlobalBase  = 0x2000_0000
	HeapBase    = 0x4000_0000
	StackTop    = 0x7fff_0000 // stack occupies [StackTop-StackSize, StackTop)
)

// DefaultStackSize is the size of the stack arena unless overridden.
const DefaultStackSize = 1 << 20

// heapHeaderSize is the size of the allocator metadata block that precedes
// every heap allocation (magic + size), as in a real malloc implementation.
const heapHeaderSize = 16

// heapMagic marks an intact heap block header.
const heapMagic = 0x4d414c4c4f433031 // "MALLOC01"

// canarySize is the size of the stack guard between frames.
const canarySize = 8

// canaryMagic is the intact stack canary value.
const canaryMagic = 0xdeadc0dedeadc0de

// UnitKind classifies data units.
type UnitKind int

// Unit kinds.
const (
	KindGlobal UnitKind = iota
	KindLiteral
	KindHeap
	KindHeapHeader
	KindStack
	KindStackGuard
)

func (k UnitKind) String() string {
	switch k {
	case KindGlobal:
		return "global"
	case KindLiteral:
		return "literal"
	case KindHeap:
		return "heap"
	case KindHeapHeader:
		return "heap-header"
	case KindStack:
		return "stack"
	case KindStackGuard:
		return "stack-guard"
	}
	return "unknown"
}

// UnitID identifies a data unit for the lifetime of an address space.
type UnitID uint64

// Unit is one data unit: a struct, array, variable, heap block, or stack
// frame. Bounds checks are performed against units.
type Unit struct {
	ID       UnitID
	Kind     UnitKind
	Name     string // diagnostic: variable name, "malloc(64)", function name
	Base     uint64
	Size     uint64
	Dead     bool // freed heap block or popped frame
	ReadOnly bool
	Data     []byte

	// The provenance shadow maps an in-unit byte offset to the provenance
	// unit of a pointer value stored at that offset. Most units that hold
	// pointers hold one, so the first entry lives inline (shOff, shProv;
	// shProv == nil means the slot is empty) and shadow is allocated only
	// when a second offset is stored. An offset lives in at most one of
	// the two places.
	shOff  uint64
	shProv *Unit
	shadow map[uint64]*Unit

	// ckptEpoch stamps the unit against the active checkpoint (see
	// checkpoint.go): a unit carrying the checkpoint's epoch is either
	// already in the undo log or was created after the checkpoint, so
	// NoteMutation skips it in O(1).
	ckptEpoch uint64

	// pinned marks a stack unit that an address lookup returned (see
	// findStack): a pointer may now name it, so its frame is never
	// recycled.
	pinned bool
}

// End returns one past the last byte of the unit.
func (u *Unit) End() uint64 { return u.Base + u.Size }

// Contains reports whether addr lies within the unit.
func (u *Unit) Contains(addr uint64) bool { return addr >= u.Base && addr < u.End() }

// FaultKind classifies simulated hardware/runtime faults.
type FaultKind int

// Fault kinds.
const (
	// FaultSegv is a simulated SIGSEGV: access to unmapped memory or a
	// write to read-only memory.
	FaultSegv FaultKind = iota
	// FaultHeapCorrupt is the allocator detecting smashed block headers
	// (glibc's "malloc(): corrupted" abort).
	FaultHeapCorrupt
	// FaultStackSmash is a clobbered stack canary detected at function
	// return.
	FaultStackSmash
	// FaultBadFree is free() of a pointer that is not a live heap block.
	FaultBadFree
	// FaultStackOverflow is exhaustion of the stack arena.
	FaultStackOverflow
	// FaultOOM is exhaustion of the heap region.
	FaultOOM
)

func (k FaultKind) String() string {
	switch k {
	case FaultSegv:
		return "segmentation violation"
	case FaultHeapCorrupt:
		return "heap corruption detected"
	case FaultStackSmash:
		return "stack smashing detected"
	case FaultBadFree:
		return "invalid free"
	case FaultStackOverflow:
		return "stack overflow"
	case FaultOOM:
		return "out of memory"
	}
	return "fault"
}

// Fault is a simulated fatal memory fault.
type Fault struct {
	Kind FaultKind
	Addr uint64
	Msg  string
}

func (f *Fault) Error() string {
	if f.Msg != "" {
		return fmt.Sprintf("%s at 0x%x: %s", f.Kind, f.Addr, f.Msg)
	}
	return fmt.Sprintf("%s at 0x%x", f.Kind, f.Addr)
}

// Stats counts address-space activity.
type Stats struct {
	Mallocs     uint64
	Frees       uint64
	FramesPush  uint64
	FramesPop   uint64
	HeapBytes   uint64
	GlobalBytes uint64
}

// AddressSpace is the simulated process memory.
type AddressSpace struct {
	nextID UnitID

	literals   []*Unit // ascending Base
	literalCur uint64
	globals    []*Unit // ascending Base
	globalCur  uint64
	heap       []*Unit // ascending Base; includes header units
	heapCur    uint64

	stackArena []byte
	stackBase  uint64  // address of stackArena[0]
	sp         uint64  // current stack pointer (grows down)
	lowWater   uint64  // lowest sp ever (memory below stays "mapped")
	stack      []*Unit // live frames+guards, push order (descending Base)

	heapCorrupted bool
	stats         Stats

	// internTable dedups string literals.
	internTable map[string]*Unit

	// stackGen is bumped whenever stack units are removed (PopFrame,
	// UnwindTo); it validates LookupCache entries for stack units.
	// heapStamp is bumped whenever heap units are removed (ReleaseTop);
	// it validates entries for heap and heap-header units. See
	// fastpath.go for the coherence contract.
	stackGen  uint64
	heapStamp uint64

	// Slab allocator state for unit Data backing (see fastpath.go).
	slab     []byte
	slabOff  uint64
	slabs    [][]byte
	released bool

	// Interned faults for the allocator hot paths. The pointers returned
	// by Malloc (OOM, corrupted-heap) and Free (bad free) are transient:
	// valid only until the next Malloc/Free call on this address space.
	// Callers either consume them immediately (libc translates them into
	// policy behaviour on the spot) or the machine dies holding the last
	// one, so no allocation per fault is needed.
	oomFault     Fault
	corruptFault Fault
	badFreeFault Fault

	// mallocNames memoizes "malloc(N)" diagnostic names by size.
	mallocNames map[uint64]string

	// mallocFaultIn is the injected-allocator-fault countdown: when armed
	// (non-zero), the n-th subsequent Malloc fails with the interned OOM
	// fault instead of allocating. See InjectMallocFault.
	mallocFaultIn uint64

	// ckpt is the active rollback checkpoint, ckptEpoch the monotonically
	// increasing epoch stamped onto units created or logged under it. See
	// checkpoint.go.
	ckpt      *Checkpoint
	ckptEpoch uint64

	// spare holds popped recyclable frames, indexed by unit count (guard
	// plus locals); see PushFrame.
	spare [][]*Frame
}

// New creates an address space with the default stack size.
func New() *AddressSpace { return NewWithStack(DefaultStackSize) }

// NewWithStack creates an address space with the given stack arena size.
func NewWithStack(stackSize uint64) *AddressSpace {
	as := &AddressSpace{
		literalCur:  LiteralBase,
		globalCur:   GlobalBase,
		heapCur:     HeapBase,
		heapStamp:   heapStampBase,
		stackArena:  getArena(stackSize),
		stackBase:   StackTop - stackSize,
		sp:          StackTop,
		lowWater:    StackTop,
		internTable: map[string]*Unit{},
	}
	return as
}

// Stats returns a snapshot of allocation counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// HeapCorrupted reports whether any write has landed in a heap block header.
func (as *AddressSpace) HeapCorrupted() bool { return as.heapCorrupted }

func (as *AddressSpace) newUnit(kind UnitKind, name string, base, size uint64, data []byte) *Unit {
	as.nextID++
	return &Unit{ID: as.nextID, Kind: kind, Name: name, Base: base, Size: size, Data: data,
		ckptEpoch: as.curEpoch()}
}

func roundUp(n, a uint64) uint64 { return (n + a - 1) / a * a }

// AllocGlobal allocates a zeroed global data unit.
func (as *AddressSpace) AllocGlobal(name string, size uint64) *Unit {
	if size == 0 {
		size = 1
	}
	base := roundUp(as.globalCur, 16)
	u := as.newUnit(KindGlobal, name, base, size, as.alloc(size))
	as.globalCur = base + size
	as.globals = append(as.globals, u)
	as.stats.GlobalBytes += size
	return u
}

// InternLiteral allocates (or reuses) a read-only unit holding data. String
// literals use this with a trailing NUL already appended.
func (as *AddressSpace) InternLiteral(data string) *Unit {
	if u, ok := as.internTable[data]; ok {
		return u
	}
	size := uint64(len(data))
	if size == 0 {
		size = 1
	}
	base := roundUp(as.literalCur, 8)
	buf := as.alloc(size)
	copy(buf, data)
	u := as.newUnit(KindLiteral, fmt.Sprintf("%q", truncForName(data)), base, size, buf)
	u.ReadOnly = true
	as.literalCur = base + size
	as.literals = append(as.literals, u)
	as.internTable[data] = u
	return u
}

func truncForName(s string) string {
	const max = 16
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

// heapLimit is the exclusive upper bound of the heap region.
const heapLimit = 0x7000_0000

// InjectMallocFault arms the allocator fault injector: the n-th subsequent
// Malloc call (1 = the very next one) fails with an out-of-memory fault and
// the countdown disarms. n = 0 disarms an armed countdown. The injected
// fault reuses the interned OOM fault value, so the failure path allocates
// nothing — the same transient-pointer contract as organic allocator faults
// (see the interned-fault note on AddressSpace).
func (as *AddressSpace) InjectMallocFault(n uint64) { as.mallocFaultIn = n }

// Malloc allocates a heap block preceded by a header unit, both contiguous
// with the previous allocation so overruns behave realistically.
func (as *AddressSpace) Malloc(size uint64) (*Unit, *Fault) {
	if as.mallocFaultIn > 0 {
		as.mallocFaultIn--
		if as.mallocFaultIn == 0 {
			as.oomFault = Fault{Kind: FaultOOM, Addr: as.heapCur,
				Msg: "injected allocator fault"}
			return nil, &as.oomFault
		}
	}
	if as.heapCorrupted {
		as.corruptFault = Fault{Kind: FaultHeapCorrupt, Addr: as.heapCur,
			Msg: "malloc(): corrupted block header"}
		return nil, &as.corruptFault
	}
	if size == 0 {
		size = 1
	}
	base := roundUp(as.heapCur, 16)
	if base+heapHeaderSize+size >= heapLimit {
		as.oomFault = Fault{Kind: FaultOOM, Addr: base}
		return nil, &as.oomFault
	}
	// Header and block units are laid out contiguously and allocated as one
	// batch; their Data shares one slab-backed slice.
	pair := make([]Unit, 2)
	data := as.alloc(heapHeaderSize + size)
	hdr, blk := &pair[0], &pair[1]
	as.nextID++
	*hdr = Unit{ID: as.nextID, Kind: KindHeapHeader, Name: "malloc-header",
		Base: base, Size: heapHeaderSize, Data: data[:heapHeaderSize:heapHeaderSize]}
	binary.LittleEndian.PutUint64(hdr.Data[0:8], heapMagic)
	binary.LittleEndian.PutUint64(hdr.Data[8:16], size)
	as.nextID++
	*blk = Unit{ID: as.nextID, Kind: KindHeap, Name: as.mallocName(size),
		Base: base + heapHeaderSize, Size: size, Data: data[heapHeaderSize:]}
	hdr.ckptEpoch = as.curEpoch()
	blk.ckptEpoch = hdr.ckptEpoch
	as.heapCur = blk.End()
	as.heap = append(as.heap, hdr, blk)
	as.stats.Mallocs++
	as.stats.HeapBytes += size
	return blk, nil
}

// mallocName memoizes the diagnostic "malloc(N)" unit names — allocation
// sizes repeat heavily, and the formatting showed up in profiles.
func (as *AddressSpace) mallocName(size uint64) string {
	if name, ok := as.mallocNames[size]; ok {
		return name
	}
	name := fmt.Sprintf("malloc(%d)", size)
	if as.mallocNames == nil {
		as.mallocNames = make(map[uint64]string, 16)
	}
	as.mallocNames[size] = name
	return name
}

// Free releases a heap block. The pointer must be the base of a live heap
// block, as with C free(). The returned fault, if any, is transient (see
// the interned-fault note on AddressSpace).
func (as *AddressSpace) Free(addr uint64) *Fault {
	u := as.FindUnit(addr)
	if u == nil || u.Kind != KindHeap || u.Base != addr {
		as.badFreeFault = Fault{Kind: FaultBadFree, Addr: addr}
		return &as.badFreeFault
	}
	if u.Dead {
		as.badFreeFault = Fault{Kind: FaultBadFree, Addr: addr, Msg: "double free"}
		return &as.badFreeFault
	}
	// Check this block's header integrity, as glibc does lazily.
	hdr := as.FindUnit(addr - heapHeaderSize)
	if hdr != nil && hdr.Kind == KindHeapHeader {
		if binary.LittleEndian.Uint64(hdr.Data[0:8]) != heapMagic {
			as.heapCorrupted = true
			return &Fault{Kind: FaultHeapCorrupt, Addr: addr,
				Msg: "free(): corrupted block header"}
		}
		as.NoteMutation(hdr)
		hdr.Dead = true
	}
	as.NoteMutation(u)
	u.Dead = true
	as.stats.Frees++
	return nil
}

// ReleaseTop unmaps heap block u and its header if they are the two
// topmost heap units and no checkpoint is active, and reports whether it
// did. It is the host's undo of its own Malloc for a request-scoped
// argument block (interp.Machine.EndRequestArgs); guest code never
// reaches it. Unlike Free, the two units leave the unit table: heapCur
// returns to the end of the unit below, so the next Malloc reuses the
// range, and the block's slab bytes are reclaimed when they are the
// slab's newest. Both units are marked dead, so a stale pointer whose
// provenance is the released block still reads as a use after free. The
// header's integrity is not checked: a block whose header an overflow
// smashed is released like any other, and heapCorrupted stays set. The
// Stats counters stay monotonic. ReleaseTop bumps heapStamp, so no
// LookupCache can answer with a released unit (see fastpath.go).
func (as *AddressSpace) ReleaseTop(u *Unit) bool {
	n := len(as.heap)
	if as.ckpt != nil || n < 2 || as.heap[n-1] != u || as.heap[n-2].Kind != KindHeapHeader {
		return false
	}
	hdr := as.heap[n-2]
	hdr.Dead, u.Dead = true, true
	u.resetShadow()
	as.heap[n-2], as.heap[n-1] = nil, nil
	as.heap = as.heap[:n-2]
	as.heapCur = HeapBase
	if n > 2 {
		as.heapCur = as.heap[n-3].End()
	}
	as.heapStamp++
	// Malloc carved header and block as one slab slice; give it back if
	// nothing was carved after it. Slabs must stay zeroed past slabOff.
	if total := hdr.Size + u.Size; total <= as.slabOff &&
		&as.slab[as.slabOff-total] == &hdr.Data[0] {
		clear(as.slab[as.slabOff-total : as.slabOff])
		as.slabOff -= total
	}
	return true
}

// HeapExtent reports the number of heap units in the unit table (blocks
// and headers, live and dead) and the heap top, the address the next
// Malloc starts from (rounded up to 16).
func (as *AddressSpace) HeapExtent() (units int, top uint64) {
	return len(as.heap), as.heapCur
}

// LocalSpec describes one local variable (or parameter) slot inside a
// frame, at a byte offset from the frame base.
type LocalSpec struct {
	Name string
	Off  uint64
	Size uint64
}

// FrameSpec is a function's static frame layout, shared by every push of
// its frames and by both execution engines: the tree-walk engine derives
// it per function (interp.NewFrameSpec) and the generated engine emits
// the same value as a static table.
type FrameSpec struct {
	// Canary names the guard unit verbatim; Locals' names are used
	// verbatim too, so a spec is built once, not per push.
	Canary string
	Size   uint64 // frame bytes, rounded up to 8 at push
	Locals []LocalSpec
	// Reusable marks a frame no pointer can be made from by the
	// function's own code (ast.FuncDecl.FrameNoEscape). PopFrame
	// recycles such a frame for the next push of the same unit count
	// unless an address lookup pinned one of its units or a checkpoint
	// is open.
	Reusable bool
}

// Frame is one pushed stack frame. Every local variable is its own data
// unit (the Jones–Kelly granularity), aliasing the shared stack arena, so
// an overflow of one stack buffer into a neighbouring local is an
// out-of-bounds access even though the bytes are adjacent.
type Frame struct {
	Base uint64
	Size uint64
	// units holds the guard at index 0 and the local of spec.Locals
	// index i at index 1+i; spec is the caller's static layout, never
	// copied.
	units  []Unit
	spec   *FrameSpec
	prevSP uint64
}

// Local returns the data unit of the local declared at frame offset off.
// Frames are small enough that a linear scan beats a map.
func (f *Frame) Local(off uint64) *Unit {
	locals := f.spec.Locals
	for i := len(locals) - 1; i >= 0; i-- {
		if locals[i].Off == off {
			return &f.units[1+i]
		}
	}
	return nil
}

// LocalAt returns the data unit of the local at index i of the PushFrame
// spec. Generated code that resolved a local's spec index at generation
// time uses it for O(1) access instead of Local's offset scan.
func (f *Frame) LocalAt(i int) *Unit { return &f.units[1+i] }

// PushFrame pushes a frame of spec's layout with a canary guard between
// it and the caller's frame, and one data unit per local. The frame keeps
// spec itself, so the caller must not modify it while the frame is live.
//
// A fresh frame costs two allocations: its units and the Frame. A
// reusable spec instead takes a popped frame of the same unit count off
// the spare list when no checkpoint is open, and reinitialises its units
// exactly as fresh ones: new IDs, live, empty shadow, the current epoch.
// That is unobservable because nothing can name a recycled unit: a
// pointer's provenance comes only from & or array decay (which a reusable
// spec rules out), from an address lookup (which pins the unit, and
// PopFrame never recycles a frame with a pinned unit), or from copying an
// existing pointer. A dangling pointer into a popped frame therefore still
// sees its dead unit.
func (as *AddressSpace) PushFrame(spec *FrameSpec) (*Frame, *Fault) {
	size := roundUp(spec.Size, 8)
	if size == 0 {
		size = 8
	}
	need := size + canarySize
	if as.sp < as.stackBase+need {
		return nil, &Fault{Kind: FaultStackOverflow, Addr: as.sp}
	}
	prevSP := as.sp
	guardBase := as.sp - canarySize
	frameBase := guardBase - size
	as.sp = frameBase
	if as.sp < as.lowWater {
		as.lowWater = as.sp
	}
	locals := spec.Locals
	n := 1 + len(locals)
	var f *Frame
	if spec.Reusable && as.ckpt == nil && n < len(as.spare) && len(as.spare[n]) > 0 {
		s := as.spare[n]
		f = s[len(s)-1]
		s[len(s)-1] = nil
		as.spare[n] = s[:len(s)-1]
	} else {
		// All of the frame's units (guard plus locals) come from one
		// batch allocation; frames are pushed on every function call,
		// so per-unit allocations would dominate the call path.
		f = &Frame{units: make([]Unit, n)}
	}
	*f = Frame{Base: frameBase, Size: size, units: f.units, spec: spec, prevSP: prevSP}
	units := f.units
	epoch := as.curEpoch()
	gOff := guardBase - as.stackBase
	guard := &units[0]
	as.nextID++
	guard.initStack(as.nextID, KindStackGuard, spec.Canary, guardBase,
		as.stackArena[gOff:gOff+canarySize:gOff+canarySize], epoch)
	binary.LittleEndian.PutUint64(guard.Data, canaryMagic)
	// Register units in descending base order so as.stack stays strictly
	// descending (guard is highest, then locals top-down).
	as.stack = append(as.stack, guard)
	for i := len(locals) - 1; i >= 0; i-- {
		sp := locals[i]
		sz := sp.Size
		if sz == 0 {
			sz = 1
		}
		base := frameBase + sp.Off
		aOff := base - as.stackBase
		u := &units[1+i]
		as.nextID++
		u.initStack(as.nextID, KindStack, sp.Name, base, as.stackArena[aOff:aOff+sz:aOff+sz], epoch)
		as.stack = append(as.stack, u)
	}
	as.stats.FramesPush++
	return f, nil
}

// initStack sets every field of a stack unit, fresh or recycled, to what
// a fresh unit holds. It stores field by field: assigning a composite
// literal built a temporary and bulk-copied it under a write barrier,
// which was most of PushFrame's time.
func (u *Unit) initStack(id UnitID, kind UnitKind, name string, base uint64, data []byte, epoch uint64) {
	u.ID, u.Kind, u.Name = id, kind, name
	u.Base, u.Size, u.Data = base, uint64(len(data)), data
	u.Dead, u.ReadOnly, u.pinned = false, false, false
	u.shOff, u.shProv, u.shadow = 0, nil, nil
	u.ckptEpoch = epoch
}

// PopFrame releases the most recent frame. It returns a FaultStackSmash if
// the canary was clobbered (only meaningful for the unsafe Standard mode —
// checked modes never let a write reach the canary). A frame of a
// reusable spec goes on the spare list (see PushFrame) unless one of its
// units is pinned or a checkpoint is open.
func (as *AddressSpace) PopFrame(f *Frame) *Fault {
	n := len(f.units)
	guard := &f.units[0]
	if len(as.stack) < n || as.stack[len(as.stack)-n] != guard {
		// Mis-nested pop; treat as internal error.
		return &Fault{Kind: FaultSegv, Addr: f.Base, Msg: "mis-nested frame pop"}
	}
	smashed := binary.LittleEndian.Uint64(guard.Data) != canaryMagic
	pinned := guard.pinned
	for i := 1; i < n; i++ {
		u := &f.units[i]
		u.Dead = true
		u.resetShadow()
		pinned = pinned || u.pinned
	}
	guard.Dead = true
	as.stack = as.stack[:len(as.stack)-n]
	as.sp = f.prevSP
	as.stackGen++ // stack units removed: invalidate stack cache entries
	as.stats.FramesPop++
	if f.spec.Reusable && !pinned && as.ckpt == nil {
		for len(as.spare) <= n {
			as.spare = append(as.spare, nil)
		}
		as.spare[n] = append(as.spare[n], f)
	}
	if smashed {
		return &Fault{Kind: FaultStackSmash, Addr: guard.Base,
			Msg: "canary of " + guard.Name}
	}
	return nil
}

// SP returns the current stack pointer (for save/restore across a
// non-local exit).
func (as *AddressSpace) SP() uint64 { return as.sp }

// UnwindTo abandons every frame pushed after the stack pointer was at sp —
// the non-local exit used when a call is canceled mid-execution. The frames
// are discarded, not returned from, so no canary checks are performed.
func (as *AddressSpace) UnwindTo(sp uint64) {
	for len(as.stack) > 0 {
		u := as.stack[len(as.stack)-1]
		if u.Base >= sp {
			break
		}
		u.Dead = true
		u.resetShadow()
		if u.Kind == KindStackGuard {
			as.stats.FramesPop++
		}
		as.stack = as.stack[:len(as.stack)-1]
	}
	as.sp = sp
	as.stackGen++ // stack units removed: invalidate stack cache entries
}

// FindUnit returns the unit containing addr (live or dead), or nil for
// unmapped addresses. Guard and header units are returned too.
func (as *AddressSpace) FindUnit(addr uint64) *Unit {
	switch {
	case addr >= LiteralBase && addr < GlobalBase:
		return findAsc(as.literals, addr)
	case addr >= GlobalBase && addr < HeapBase:
		return findAsc(as.globals, addr)
	case addr >= HeapBase && addr < heapLimit:
		return findAsc(as.heap, addr)
	case addr >= as.stackBase && addr < StackTop:
		return as.findStack(addr)
	}
	return nil
}

// VisitUnits calls visit for every registered data unit — literals, globals,
// heap blocks and headers (live and dead), then the live stack units — in a
// deterministic order (region by region, registration order within each).
// visit returning false stops the walk. Fault-injection tooling uses it to
// enumerate corruption targets; the walk itself must not mutate the address
// space's unit registries.
func (as *AddressSpace) VisitUnits(visit func(*Unit) bool) {
	for _, set := range [4][]*Unit{as.literals, as.globals, as.heap, as.stack} {
		for _, u := range set {
			if !visit(u) {
				return
			}
		}
	}
}

func findAsc(units []*Unit, addr uint64) *Unit {
	i := sort.Search(len(units), func(i int) bool { return units[i].End() > addr })
	if i < len(units) && units[i].Contains(addr) {
		return units[i]
	}
	return nil
}

func (as *AddressSpace) findStack(addr uint64) *Unit {
	// as.stack is strictly descending in Base: binary-search for the first
	// unit with Base <= addr (the only candidate that can contain addr).
	s := as.stack
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Base <= addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(s) && s[lo].Contains(addr) {
		// The caller may make a pointer from this unit: its frame must
		// never be recycled (see PushFrame).
		s[lo].pinned = true
		return s[lo]
	}
	return nil
}

// stackMapped reports whether addr is in the touched part of the stack
// arena (which stays accessible like real stack memory even after frames
// pop).
func (as *AddressSpace) stackMapped(addr uint64) bool {
	return addr >= as.lowWater && addr < StackTop
}

// RawRead reads n bytes starting at addr with no bounds checking — the
// Standard (unsafe) semantics. Unmapped bytes fault.
func (as *AddressSpace) RawRead(addr uint64, buf []byte) *Fault {
	n := uint64(len(buf))
	for n > 0 {
		if as.stackMapped(addr) {
			off := addr - as.stackBase
			avail := StackTop - addr
			c := n
			if c > avail {
				c = avail
			}
			copy(buf[uint64(len(buf))-n:], as.stackArena[off:off+c])
			addr += c
			n -= c
			continue
		}
		u := as.FindUnit(addr)
		if u == nil {
			return &Fault{Kind: FaultSegv, Addr: addr, Msg: "read of unmapped memory"}
		}
		off := addr - u.Base
		c := n
		if avail := u.Size - off; c > avail {
			c = avail
		}
		copy(buf[uint64(len(buf))-n:], u.Data[off:off+c])
		addr += c
		n -= c
	}
	return nil
}

// RawWrite writes bytes starting at addr with no bounds checking — the
// Standard (unsafe) semantics. Writes into heap headers mark the heap
// corrupted; writes into stack canaries clobber them (detected at frame
// pop); writes to read-only literals or unmapped memory fault immediately.
func (as *AddressSpace) RawWrite(addr uint64, data []byte) *Fault {
	n := uint64(len(data))
	for n > 0 {
		if as.stackMapped(addr) {
			// Guard units alias the arena, so writes that reach a
			// canary clobber it in place; PopFrame detects that.
			off := addr - as.stackBase
			avail := StackTop - addr
			c := n
			if c > avail {
				c = avail
			}
			copy(as.stackArena[off:off+c], data[uint64(len(data))-n:])
			addr += c
			n -= c
			continue
		}
		u := as.FindUnit(addr)
		if u == nil {
			return &Fault{Kind: FaultSegv, Addr: addr, Msg: "write to unmapped memory"}
		}
		if u.ReadOnly {
			return &Fault{Kind: FaultSegv, Addr: addr, Msg: "write to read-only memory"}
		}
		off := addr - u.Base
		c := n
		if avail := u.Size - off; c > avail {
			c = avail
		}
		copy(u.Data[off:off+c], data[uint64(len(data))-n:])
		if u.Kind == KindHeapHeader {
			as.heapCorrupted = true
		}
		u.clearShadowRange(off, c)
		addr += c
		n -= c
	}
	return nil
}

// --- Provenance shadow (pointer stores) ---

// SetShadow records that the pointer stored at the given in-unit offset has
// provenance prov (nil erases the entry).
func (u *Unit) SetShadow(off uint64, prov *Unit) {
	switch {
	case u.shProv != nil && u.shOff == off:
		u.shProv = prov
	case prov == nil:
		delete(u.shadow, off)
	case u.shProv == nil:
		delete(u.shadow, off)
		u.shOff, u.shProv = off, prov
	default:
		if u.shadow == nil {
			// Pre-size: a unit that stores two pointers usually stores a
			// few more (arrays of pointers, structs with pointer fields).
			u.shadow = make(map[uint64]*Unit, 8)
		}
		u.shadow[off] = prov
	}
}

// GetShadow returns the provenance of a pointer loaded from the given
// offset, or nil.
func (u *Unit) GetShadow(off uint64) *Unit {
	if u.shProv != nil && u.shOff == off {
		return u.shProv
	}
	if u.shadow == nil {
		return nil
	}
	return u.shadow[off]
}

// resetShadow drops every provenance entry (the unit died or was released).
func (u *Unit) resetShadow() {
	u.shProv = nil
	u.shadow = nil
}

// clearShadowRange invalidates shadow entries overlapping [off, off+n): a
// pointer entry at offset a covers bytes [a, a+8).
func (u *Unit) clearShadowRange(off, n uint64) {
	lo := uint64(0)
	if off >= 7 {
		lo = off - 7
	}
	hi := off + n
	if u.shProv != nil && u.shOff >= lo && u.shOff < hi {
		u.shProv = nil
	}
	if len(u.shadow) == 0 {
		return
	}
	for a := lo; a < hi; a++ {
		delete(u.shadow, a)
	}
}

// ClearShadowRange is the exported form used by checked stores.
func (u *Unit) ClearShadowRange(off, n uint64) { u.clearShadowRange(off, n) }
