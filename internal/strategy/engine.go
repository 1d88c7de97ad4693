package strategy

import (
	"fmt"
	"strings"

	"focc/internal/cc/sema"
	"focc/internal/cc/types"
	"focc/internal/core"
	"focc/internal/mem"
)

// row is one entry of the strategy catalog — the single source both the
// Strategy doc comment below and the All list render from, so adding a
// strategy cannot drift the docs (same pattern as the fobench experiments
// table).
type row struct {
	name Strategy
	desc string
}

// catalog lists every per-site manufactured-value strategy, in the fixed
// order the search loop tries them.
var catalog = []row{
	{SmallInt, "the paper's global small-integer sequence (0, 1, 2, 0, 1, 3, ...)"},
	{Zero, "always 0 — '\\0' for string scans, the terminating sentinel"},
	{One, "always 1"},
	{Max, "all-ones for the access width (UINT_MAX-style saturation)"},
	{UnitPtr, "a valid pointer to the base of the faulting access's own unit"},
	{LastStore, "the last value a discarded store wrote to this location"},
}

// Strategy names one per-site manufactured-value strategy. The catalog:
//
//	smallint  - the paper's global small-integer sequence (0, 1, 2, 0, 1, 3, ...)
//	zero      - always 0 — '\0' for string scans, the terminating sentinel
//	one       - always 1
//	max       - all-ones for the access width (UINT_MAX-style saturation)
//	unitptr   - a valid pointer to the base of the faulting access's own unit
//	laststore - the last value a discarded store wrote to this location
//
// unitptr and laststore degrade to smallint when their precondition fails
// (no live unit / no remembered store); the event log attributes each
// manufactured value to the strategy that actually produced it.
// TestStrategyDocMatchesCatalog pins this comment to the catalog.
type Strategy string

// The strategies, in catalog (search) order.
const (
	SmallInt  Strategy = "smallint"
	Zero      Strategy = "zero"
	One       Strategy = "one"
	Max       Strategy = "max"
	UnitPtr   Strategy = "unitptr"
	LastStore Strategy = "laststore"
)

// All returns every strategy in catalog order. The slice is fresh; callers
// may reorder it.
func All() []Strategy {
	out := make([]Strategy, len(catalog))
	for i, r := range catalog {
		out[i] = r.name
	}
	return out
}

// Describe renders the catalog as "name - description" lines, one per
// strategy — the text the Strategy doc comment embeds.
func Describe() string {
	var b strings.Builder
	for _, r := range catalog {
		fmt.Fprintf(&b, "%-9s - %s\n", r.name, r.desc)
	}
	return b.String()
}

// Parse validates a strategy name.
func Parse(s string) (Strategy, error) {
	for _, r := range catalog {
		if string(r.name) == s {
			return r.name, nil
		}
	}
	names := make([]string, len(catalog))
	for i, r := range catalog {
		names[i] = string(r.name)
	}
	return "", fmt.Errorf("unknown strategy %q (want %s)", s, strings.Join(names, ", "))
}

// Assignment maps each canonical load site to its strategy, indexed by
// site id.
type Assignment []Strategy

// DefaultAssignment is the context-informed default: string scans
// manufacture '\0', pointer reads a valid unit-local pointer, reloads the
// last stored value, everything else the fallback strategy.
func DefaultAssignment(t *Table, fallback Strategy) Assignment {
	if fallback == "" {
		fallback = SmallInt
	}
	a := make(Assignment, len(t.Sites))
	for i, s := range t.Sites {
		switch s.Class {
		case StringScan:
			a[i] = Zero
		case PointerRead:
			a[i] = UnitPtr
		case Reload:
			a[i] = LastStore
		default:
			a[i] = fallback
		}
	}
	return a
}

// UniformAssignment assigns one strategy to every site (the all-smallint
// instance is the paper's global-sequence baseline).
func UniformAssignment(t *Table, s Strategy) Assignment {
	a := make(Assignment, len(t.Sites))
	for i := range a {
		a[i] = s
	}
	return a
}

// shadowCap bounds the discarded-store shadow; eviction is FIFO through a
// ring so the engine stays deterministic (no map-iteration order).
const shadowCap = 64

type shadowEntry struct {
	addr uint64
	size int
	val  int64
}

// shadow remembers the most recent discarded stores by absolute address,
// newest-wins, so a LastStore site can replay them.
type shadow struct {
	ring [shadowCap]shadowEntry
	n    int // entries in use
	next int // ring write position
}

func (s *shadow) put(addr uint64, data []byte) {
	size := len(data)
	if size > 8 {
		size = 8
	}
	var v int64
	for i := 0; i < size; i++ {
		v |= int64(data[i]) << (8 * uint(i))
	}
	e := shadowEntry{addr: addr, size: size, val: v}
	for i := 0; i < s.n; i++ {
		if s.ring[i].addr == addr {
			s.ring[i] = e
			return
		}
	}
	s.ring[s.next] = e
	s.next = (s.next + 1) % shadowCap
	if s.n < shadowCap {
		s.n++
	}
}

func (s *shadow) get(addr uint64, size int) (int64, bool) {
	for i := 0; i < s.n; i++ {
		e := s.ring[i]
		if e.addr == addr && size <= e.size {
			v := e.val
			if size < 8 {
				v &= (1 << (8 * uint(size))) - 1
			}
			return v, true
		}
	}
	return 0, false
}

func (s *shadow) reset() { s.n, s.next = 0, 0 }

// Engine is the core.ContextGenerator both execution engines consult
// in ModeFOContext. It is primed with the canonical load-site id before
// every checked load and resolves the site's assigned strategy when the
// load turns out to be invalid. Not safe for concurrent use; each program
// instance owns one engine (the ValueGenerator contract).
type Engine struct {
	table    *Table
	assign   Assignment
	fallback core.ValueGenerator

	site  int32
	store shadow

	// hits counts manufactures per site (index site id; the last slot
	// counts site-less fallback manufactures), the evidence the search
	// loop uses to restrict itself to sites that actually fire.
	hits []uint64
}

// NewEngine builds an engine over a classified table. assign defaults to
// DefaultAssignment(table, SmallInt); fallback is the generator behind the
// SmallInt strategy and site-less manufactures (the paper's sequence when
// nil).
func NewEngine(table *Table, assign Assignment, fallback core.ValueGenerator) *Engine {
	if assign == nil {
		assign = DefaultAssignment(table, SmallInt)
	}
	if fallback == nil {
		fallback = core.NewSmallIntGenerator()
	}
	return &Engine{
		table:    table,
		assign:   assign,
		fallback: fallback,
		site:     -1,
		hits:     make([]uint64, len(table.Sites)+1),
	}
}

// Table returns the engine's classified site table.
func (e *Engine) Table() *Table { return e.table }

// Next satisfies core.ValueGenerator for callers that bypass site context.
func (e *Engine) Next(size int) int64 { return e.fallback.Next(size) }

// Reset restarts the fallback sequence and clears the shadow and priming
// (per-request isolation when an instance is reused).
func (e *Engine) Reset() {
	e.fallback.Reset()
	e.store.reset()
	e.site = -1
}

// SetSite primes the engine with the site about to load; -1 means no site
// context (bulk libc operations, aggregate copies, host drivers).
func (e *Engine) SetSite(site int32, _ *types.Type, _ int) { e.site = site }

// Manufacture produces the value for an invalid read at the primed site.
// It returns the provenance unit to attach when the strategy manufactured
// a pointer, and the name of the strategy that actually produced the value.
func (e *Engine) Manufacture(p core.Pointer, size int) (int64, *mem.Unit, string) {
	strat := SmallInt
	if e.site >= 0 && int(e.site) < len(e.assign) {
		strat = e.assign[e.site]
		e.hits[e.site]++
	} else {
		e.hits[len(e.hits)-1]++
	}
	switch strat {
	case Zero:
		return 0, nil, string(Zero)
	case One:
		return 1, nil, string(One)
	case Max:
		v := int64(-1)
		if size > 0 && size < 8 {
			v = (1 << (8 * uint(size))) - 1
		}
		return v, nil, string(Max)
	case UnitPtr:
		if u := p.Prov; u != nil && !u.Dead && size == 8 {
			return int64(u.Base), u, string(UnitPtr)
		}
	case LastStore:
		if v, ok := e.store.get(p.Addr, size); ok {
			return v, nil, string(LastStore)
		}
	}
	return e.fallback.Next(size), nil, string(SmallInt)
}

// NoteDiscardedStore feeds the discarded-store shadow.
func (e *Engine) NoteDiscardedStore(p core.Pointer, data []byte) {
	e.store.put(p.Addr, data)
}

// TouchedSites returns the site ids that manufactured at least one value
// since construction, ascending — the search loop's working set.
func (e *Engine) TouchedSites() []int32 {
	var out []int32
	for i := 0; i < len(e.hits)-1; i++ {
		if e.hits[i] > 0 {
			out = append(out, int32(i))
		}
	}
	return out
}

// ForProgram builds the default context-aware engine for a sema-analyzed
// program: classified table, context-informed default assignment, paper
// fallback sequence. It is what interp.New provisions when ModeFOContext
// is selected without an explicit strategy engine.
func ForProgram(prog *sema.Program) *Engine {
	return NewEngine(Classify(prog), nil, nil)
}
