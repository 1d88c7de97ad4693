package mem

import "testing"

func TestInjectMallocFaultCountdown(t *testing.T) {
	as := New()
	as.InjectMallocFault(3)
	for i := 0; i < 2; i++ {
		if u, f := as.Malloc(16); u == nil || f != nil {
			t.Fatalf("malloc %d before the armed point failed: %v", i+1, f)
		}
	}
	u, f := as.Malloc(16)
	if u != nil || f == nil || f.Kind != FaultOOM {
		t.Fatalf("armed malloc: got unit=%v fault=%v, want OOM fault", u, f)
	}
	// The countdown disarms after firing.
	if u, f := as.Malloc(16); u == nil || f != nil {
		t.Fatalf("malloc after fired injection failed: %v", f)
	}
	// n = 0 disarms.
	as.InjectMallocFault(2)
	as.InjectMallocFault(0)
	for i := 0; i < 4; i++ {
		if u, f := as.Malloc(16); u == nil || f != nil {
			t.Fatalf("disarmed malloc %d failed: %v", i+1, f)
		}
	}
}

// Injected allocator faults must reuse the interned OOM fault value so the
// allocation-free fast path (PR 3) stays allocation-free under injection.
func TestInjectedMallocFaultIsAllocationFree(t *testing.T) {
	as := New()
	allocs := testing.AllocsPerRun(200, func() {
		as.InjectMallocFault(1)
		if u, f := as.Malloc(8); u != nil || f == nil {
			t.Fatal("injected malloc fault did not fire")
		}
	})
	if allocs != 0 {
		t.Fatalf("injected malloc fault path allocates: %v allocs/op, want 0", allocs)
	}
}

func TestVisitUnitsCoversAllRegions(t *testing.T) {
	as := New()
	lit := as.InternLiteral("lit\x00")
	g := as.AllocGlobal("g", 8)
	h, f := as.Malloc(8)
	if f != nil {
		t.Fatalf("malloc: %v", f)
	}
	fr, ff := as.PushFrame(&FrameSpec{Canary: "f", Size: 8, Locals: []LocalSpec{{Name: "x", Off: 0, Size: 8}}})
	if ff != nil {
		t.Fatalf("push frame: %v", ff)
	}
	want := map[*Unit]bool{lit: false, g: false, h: false, fr.Local(0): false}
	n := 0
	as.VisitUnits(func(u *Unit) bool {
		if _, ok := want[u]; ok {
			want[u] = true
		}
		n++
		return true
	})
	for u, seen := range want {
		if !seen {
			t.Errorf("unit %s not visited", u.Name)
		}
	}
	// Early stop.
	stopped := 0
	as.VisitUnits(func(*Unit) bool { stopped++; return false })
	if stopped != 1 {
		t.Errorf("early-stop walk visited %d units, want 1", stopped)
	}
	if n < 4 {
		t.Errorf("full walk visited %d units, want at least 4", n)
	}
}
