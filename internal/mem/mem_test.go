package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRegionsDisjoint(t *testing.T) {
	as := New()
	lit := as.InternLiteral("hello\x00")
	g := as.AllocGlobal("g", 32)
	h, fault := as.Malloc(16)
	if fault != nil {
		t.Fatal(fault)
	}
	f, fault := as.PushFrame("fn", 24, []LocalSpec{{Name: "x", Off: 0, Size: 24}})
	if fault != nil {
		t.Fatal(fault)
	}
	units := []*Unit{lit, g, h, f.Local(0)}
	for i, a := range units {
		for j, b := range units {
			if i == j {
				continue
			}
			if a.Base < b.End() && b.Base < a.End() {
				t.Errorf("units %d and %d overlap: [%x,%x) [%x,%x)",
					i, j, a.Base, a.End(), b.Base, b.End())
			}
		}
	}
}

func TestLiteralInterning(t *testing.T) {
	as := New()
	a := as.InternLiteral("same\x00")
	b := as.InternLiteral("same\x00")
	c := as.InternLiteral("diff\x00")
	if a != b {
		t.Error("identical literals not interned")
	}
	if a == c {
		t.Error("different literals merged")
	}
	if !a.ReadOnly {
		t.Error("literal not read-only")
	}
}

func TestMallocFindAndFree(t *testing.T) {
	as := New()
	u, fault := as.Malloc(64)
	if fault != nil {
		t.Fatal(fault)
	}
	if got := as.FindUnit(u.Base + 10); got != u {
		t.Errorf("FindUnit inside block = %v", got)
	}
	if f := as.Free(u.Base); f != nil {
		t.Fatalf("free: %v", f)
	}
	if !u.Dead {
		t.Error("freed unit not dead")
	}
	if f := as.Free(u.Base); f == nil || f.Kind != FaultBadFree {
		t.Errorf("double free fault = %v", f)
	}
}

func TestFreeInvalidPointer(t *testing.T) {
	as := New()
	u, _ := as.Malloc(64)
	if f := as.Free(u.Base + 8); f == nil || f.Kind != FaultBadFree {
		t.Errorf("interior free fault = %v", f)
	}
	if f := as.Free(0xdead); f == nil {
		t.Error("free of wild pointer should fault")
	}
}

func TestHeapHeaderCorruption(t *testing.T) {
	as := New()
	a, _ := as.Malloc(16)
	b, _ := as.Malloc(16)
	// Write past the end of a into b's header.
	overrun := make([]byte, 24)
	for i := range overrun {
		overrun[i] = 0x41
	}
	if f := as.RawWrite(a.Base, overrun); f != nil {
		t.Fatalf("raw write: %v", f)
	}
	if !as.HeapCorrupted() {
		t.Fatal("header overwrite not detected")
	}
	if f := as.Free(b.Base); f == nil || f.Kind != FaultHeapCorrupt {
		t.Errorf("free after corruption = %v", f)
	}
	if _, f := as.Malloc(8); f == nil || f.Kind != FaultHeapCorrupt {
		t.Errorf("malloc after corruption = %v", f)
	}
}

func TestHeapOverrunIntoNextBlockData(t *testing.T) {
	// An overrun that skips the header region would corrupt the next
	// block's data silently (classic heap corruption).
	as := New()
	a, _ := as.Malloc(16)
	b, _ := as.Malloc(16)
	copy(b.Data, "BBBB")
	// Write at b's first byte via an address computed from a.
	off := b.Base - a.Base
	if f := as.RawWrite(a.Base+off, []byte{'X'}); f != nil {
		t.Fatal(f)
	}
	if b.Data[0] != 'X' {
		t.Error("raw write did not corrupt the neighbouring block")
	}
}

func TestRawAccessUnmapped(t *testing.T) {
	as := New()
	var buf [4]byte
	if f := as.RawRead(0x10, buf[:]); f == nil || f.Kind != FaultSegv {
		t.Errorf("read of unmapped = %v", f)
	}
	if f := as.RawWrite(0x10, buf[:]); f == nil || f.Kind != FaultSegv {
		t.Errorf("write of unmapped = %v", f)
	}
	// Past the heap cursor is unmapped too.
	u, _ := as.Malloc(8)
	if f := as.RawWrite(u.End()+1024, buf[:]); f == nil {
		t.Error("write past heap cursor should fault")
	}
}

func TestWriteToLiteralFaults(t *testing.T) {
	as := New()
	lit := as.InternLiteral("ro\x00")
	if f := as.RawWrite(lit.Base, []byte{'x'}); f == nil || f.Kind != FaultSegv {
		t.Errorf("write to .rodata = %v", f)
	}
}

func TestFrameCanary(t *testing.T) {
	as := New()
	f, fault := as.PushFrame("victim", 16, []LocalSpec{{Name: "buf", Off: 0, Size: 16}})
	if fault != nil {
		t.Fatal(fault)
	}
	// Overrun the frame into the canary (24 bytes: the 16-byte frame plus
	// the 8-byte guard; further would hit the unmapped top of the stack).
	overrun := make([]byte, 24)
	for i := range overrun {
		overrun[i] = 0x41
	}
	if fw := as.RawWrite(f.Base, overrun); fw != nil {
		t.Fatal(fw)
	}
	fault = as.PopFrame(f)
	if fault == nil || fault.Kind != FaultStackSmash {
		t.Errorf("pop after canary clobber = %v", fault)
	}
}

func TestFrameCleanPop(t *testing.T) {
	as := New()
	f, _ := as.PushFrame("fn", 16, []LocalSpec{{Name: "x", Off: 0, Size: 8}})
	if fault := as.PopFrame(f); fault != nil {
		t.Errorf("clean pop = %v", fault)
	}
}

func TestStaleStackData(t *testing.T) {
	// A popped frame's bytes persist; a new frame at the same address sees
	// them (the Midnight Commander precondition).
	as := New()
	f1, _ := as.PushFrame("a", 16, []LocalSpec{{Name: "buf", Off: 0, Size: 16}})
	copy(f1.Local(0).Data, "GARBAGE!")
	as.PopFrame(f1)
	f2, _ := as.PushFrame("b", 16, []LocalSpec{{Name: "buf", Off: 0, Size: 16}})
	if !bytes.HasPrefix(f2.Local(0).Data, []byte("GARBAGE!")) {
		t.Errorf("fresh frame data = %q, want stale bytes", f2.Local(0).Data[:8])
	}
}

func TestPerLocalUnits(t *testing.T) {
	as := New()
	f, _ := as.PushFrame("fn", 32, []LocalSpec{
		{Name: "a", Off: 0, Size: 8},
		{Name: "b", Off: 8, Size: 16},
		{Name: "c", Off: 24, Size: 4},
	})
	a, b, c := f.Local(0), f.Local(8), f.Local(24)
	if a == nil || b == nil || c == nil {
		t.Fatal("missing local units")
	}
	if a.End() != b.Base || b.End() != c.Base {
		t.Errorf("locals not adjacent: a=[%x,%x) b=[%x,%x) c=[%x,%x)",
			a.Base, a.End(), b.Base, b.End(), c.Base, c.End())
	}
	// The object table must resolve addresses to the right local.
	if as.FindUnit(b.Base+3) != b {
		t.Error("FindUnit resolved to the wrong local")
	}
	// One-past-end of a belongs to b, not a.
	if as.FindUnit(a.End()) != b {
		t.Error("adjacent boundary resolved incorrectly")
	}
	for i, u := range []*Unit{a, b, c} {
		if f.LocalAt(i) != u {
			t.Errorf("LocalAt(%d) is not the local of spec index %d", i, i)
		}
	}
}

// A call pushes its frame in two allocations (the units and the Frame)
// and returns through PopFrame without allocating, pointer stores
// included: the first provenance entry of a unit lives inline.
func TestFrameCallAllocs(t *testing.T) {
	as := New()
	spec := []LocalSpec{{Name: "p", Off: 0, Size: 8}, {Name: "buf", Off: 8, Size: 16}}
	target := as.AllocGlobal("g", 8)
	allocs := testing.AllocsPerRun(100, func() {
		f, _ := as.PushFrame("fn", 24, spec)
		f.LocalAt(0).SetShadow(0, target)
		f.LocalAt(1).SetShadow(8, target)
		as.PopFrame(f)
	})
	if allocs != 2 {
		t.Errorf("push+store+pop allocates %v times, want 2", allocs)
	}
}

func TestStackOverflow(t *testing.T) {
	as := NewWithStack(4096)
	var frames []*Frame
	for {
		f, fault := as.PushFrame("deep", 512, []LocalSpec{{Name: "x", Off: 0, Size: 512}})
		if fault != nil {
			if fault.Kind != FaultStackOverflow {
				t.Fatalf("fault = %v, want stack overflow", fault)
			}
			break
		}
		frames = append(frames, f)
		if len(frames) > 100 {
			t.Fatal("no overflow after 100 frames in a 4K stack")
		}
	}
}

func TestShadowProvenance(t *testing.T) {
	as := New()
	g := as.AllocGlobal("g", 64)
	target, _ := as.Malloc(8)
	g.SetShadow(16, target)
	if got := g.GetShadow(16); got != target {
		t.Errorf("GetShadow = %v", got)
	}
	// A 1-byte overwrite anywhere within the stored pointer clears it.
	g.ClearShadowRange(20, 1)
	if got := g.GetShadow(16); got != nil {
		t.Error("overlapping write did not clear shadow")
	}
	// Non-overlapping writes leave it alone.
	g.SetShadow(16, target)
	g.ClearShadowRange(0, 8)
	g.ClearShadowRange(24, 8)
	if g.GetShadow(16) == nil {
		t.Error("non-overlapping clears removed shadow")
	}
}

func TestMallocZeroSize(t *testing.T) {
	as := New()
	u, fault := as.Malloc(0)
	if fault != nil || u.Size == 0 {
		t.Errorf("malloc(0) = %v, %v", u, fault)
	}
}

func TestStats(t *testing.T) {
	as := New()
	u, _ := as.Malloc(8)
	as.Free(u.Base)
	f, _ := as.PushFrame("fn", 8, []LocalSpec{{Name: "x", Off: 0, Size: 8}})
	as.PopFrame(f)
	st := as.Stats()
	if st.Mallocs != 1 || st.Frees != 1 || st.FramesPush != 1 || st.FramesPop != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRawReadAcrossUnits(t *testing.T) {
	as := New()
	a := as.AllocGlobal("a", 16)
	b := as.AllocGlobal("b", 16)
	copy(a.Data, "AAAAAAAAAAAAAAAA")
	copy(b.Data, "BBBBBBBBBBBBBBBB")
	if b.Base != a.End() {
		t.Skipf("globals not adjacent (%x vs %x)", a.End(), b.Base)
	}
	buf := make([]byte, 20)
	if f := as.RawRead(a.Base+12, buf); f != nil {
		t.Fatal(f)
	}
	if string(buf) != "AAAABBBBBBBBBBBBBBBB" {
		t.Errorf("cross-unit read = %q", buf)
	}
}

func TestFaultStrings(t *testing.T) {
	f := &Fault{Kind: FaultSegv, Addr: 0x123, Msg: "boom"}
	if s := f.Error(); s == "" || !bytes.Contains([]byte(s), []byte("0x123")) {
		t.Errorf("fault error = %q", s)
	}
	for k := FaultSegv; k <= FaultOOM; k++ {
		if k.String() == "fault" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// Property: heap allocations never overlap each other or their headers.
func TestMallocNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := New()
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, s := range sizes {
			if len(spans) > 64 {
				break
			}
			u, fault := as.Malloc(uint64(s%2048) + 1)
			if fault != nil {
				return false
			}
			spans = append(spans, span{u.Base, u.End()})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FindUnit agrees with the unit an allocation returned, for every
// interior address probed.
func TestFindUnitConsistencyProperty(t *testing.T) {
	f := func(sizes []uint16, probe uint16) bool {
		as := New()
		for _, s := range sizes {
			sz := uint64(s%512) + 1
			u, fault := as.Malloc(sz)
			if fault != nil {
				return false
			}
			addr := u.Base + uint64(probe)%sz
			if as.FindUnit(addr) != u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RawWrite then RawRead round-trips within any mapped unit.
func TestRawRoundTripProperty(t *testing.T) {
	f := func(data []byte, off uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 256 {
			data = data[:256]
		}
		as := New()
		u := as.AllocGlobal("g", 512)
		addr := u.Base + uint64(off)
		if f := as.RawWrite(addr, data); f != nil {
			return false
		}
		got := make([]byte, len(data))
		if f := as.RawRead(addr, got); f != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
