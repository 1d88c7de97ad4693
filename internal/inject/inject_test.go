package inject

import (
	"os"
	"strings"
	"testing"

	"focc/fo"
	_ "focc/internal/genservers" // run the five servers on the engine that ships
)

// injSrc exercises loads and stores over a global buffer with an adjacent
// global, so perturbed accesses have realistic neighbours to land on.
const injSrc = `
int buf[4];
int sentinel = 77;
int sum;

int work(void) {
	int i;
	sum = 0;
	for (i = 0; i < 4; i++) buf[i] = i + 1;
	for (i = 0; i < 4; i++) sum = sum + buf[i];
	return sum;
}
`

const allocSrc = `
#include <stdlib.h>
#include <string.h>
int use(void) {
	char *p = malloc(16);
	int v;
	strcpy(p, "hello");
	v = p[0];
	free(p);
	return v;
}
`

func newMachine(t *testing.T, src string, mode fo.Mode, inj *Injector) *fo.Machine {
	t.Helper()
	prog, err := fo.Compile("inj.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := fo.MachineConfig{Mode: mode, MaxSteps: 1_000_000}
	if inj != nil {
		cfg.WrapAccessor = inj.Wrap
	}
	m, err := prog.NewMachine(cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

// An unarmed injector is a pure counter, and — because the program commits
// no memory errors — the interpreter issues the identical access sequence
// in every mode. This is the property campaign profiling relies on.
func TestInjectorCountsModeIndependent(t *testing.T) {
	var loads, stores []uint64
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious} {
		inj := &Injector{}
		m := newMachine(t, injSrc, mode, inj)
		if res := m.Call("work"); res.Outcome != fo.OutcomeOK || res.Value.I != 10 {
			t.Fatalf("%v: clean work() = %v/%d, want ok/10", mode, res.Outcome, res.Value.I)
		}
		loads = append(loads, inj.Loads())
		stores = append(stores, inj.Stores())
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] != loads[0] || stores[i] != stores[0] {
			t.Errorf("access counts differ across modes: loads=%v stores=%v", loads, stores)
		}
	}
	if loads[0] == 0 || stores[0] == 0 {
		t.Fatalf("expected nonzero counts, got loads=%d stores=%d", loads[0], stores[0])
	}
}

// Sweeping the injected fault across every load ordinal must reproduce the
// paper's mode contract at each point: BoundsCheck terminates, Failure-
// Oblivious survives and logs the manufactured read.
func TestInjectedOOBReadSweep(t *testing.T) {
	probe := &Injector{}
	m := newMachine(t, injSrc, fo.Standard, probe)
	m.Call("work")
	total := probe.Loads()

	for n := uint64(1); n <= total; n++ {
		inj := &Injector{}
		m := newMachine(t, injSrc, fo.FailureOblivious, inj)
		inj.Arm(false, n, ShapePastEnd, 0)
		res := m.Call("work")
		if !inj.Fired() {
			t.Fatalf("fo load %d: fault did not fire", n)
		}
		if res.Outcome.Crashed() {
			t.Errorf("fo load %d: crashed: %v (%v)", n, res.Outcome, res.Err)
		}
		if got := m.Log().Snapshot().Total(); got == 0 {
			t.Errorf("fo load %d: no memory-error events logged", n)
		}

		inj = &Injector{}
		m = newMachine(t, injSrc, fo.BoundsCheck, inj)
		inj.Arm(false, n, ShapePastEnd, 0)
		res = m.Call("work")
		if res.Outcome != fo.OutcomeMemErrorTermination {
			t.Errorf("bc load %d: outcome %v, want mem-error termination", n, res.Outcome)
		}
	}
}

// A wild-shaped injected write lands in unmapped space: Standard segfaults
// on the raw access, BoundsCheck terminates with a memory error, and
// FailureOblivious discards the write and completes with the sum missing
// exactly the discarded element.
func TestInjectedWildWriteByMode(t *testing.T) {
	probe := &Injector{}
	m := newMachine(t, injSrc, fo.Standard, probe)
	m.Call("work")
	if probe.Stores() < 4 {
		t.Fatalf("profile stores = %d, want >= 4", probe.Stores())
	}

	cases := []struct {
		mode    fo.Mode
		crashed bool
	}{
		{fo.Standard, true},
		{fo.BoundsCheck, true},
		{fo.FailureOblivious, false},
	}
	for _, tc := range cases {
		inj := &Injector{}
		m := newMachine(t, injSrc, tc.mode, inj)
		// Ordinal chosen mid-run so it perturbs one of work()'s stores.
		inj.Arm(true, probe.Stores()/2, ShapeWild, 3)
		res := m.Call("work")
		if !inj.Fired() {
			t.Fatalf("%v: fault did not fire", tc.mode)
		}
		if got := res.Outcome.Crashed(); got != tc.crashed {
			t.Errorf("%v: crashed=%v (outcome %v, err %v), want crashed=%v",
				tc.mode, got, res.Outcome, res.Err, tc.crashed)
		}
	}
}

// An injected allocator fault makes malloc return null mid-request:
// Standard and BoundsCheck die on the subsequent null dereference while
// FailureOblivious absorbs it and keeps going.
func TestInjectedAllocFaultByMode(t *testing.T) {
	for _, tc := range []struct {
		mode    fo.Mode
		crashed bool
	}{
		{fo.Standard, true},
		{fo.BoundsCheck, true},
		{fo.FailureOblivious, false},
	} {
		m := newMachine(t, allocSrc, tc.mode, nil)
		m.AddressSpace().InjectMallocFault(1)
		res := m.Call("use")
		if got := res.Outcome.Crashed(); got != tc.crashed {
			t.Errorf("%v: crashed=%v (outcome %v, err %v), want crashed=%v",
				tc.mode, got, res.Outcome, res.Err, tc.crashed)
		}
		// Uninjected control: the same call succeeds in every mode.
		m = newMachine(t, allocSrc, tc.mode, nil)
		if res := m.Call("use"); res.Outcome != fo.OutcomeOK || res.Value.I != 'h' {
			t.Errorf("%v: clean use() = %v/%d, want ok/'h'", tc.mode, res.Outcome, res.Value.I)
		}
	}
}

const readonlySrc = `
int buf[4];

int readonly_sum(void) {
	int i;
	int s = 0;
	for (i = 0; i < 4; i++) s = s + buf[i];
	return s;
}
`

// Corrupting a byte of a global is visible through the access path in
// every mode without crashing anything: the corruption is in-bounds data,
// so no policy intervenes — it models a bug elsewhere having already
// smashed memory, and the outcome taxonomy classifies it by output.
func TestCorruptByteChangesOutput(t *testing.T) {
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious} {
		m := newMachine(t, readonlySrc, mode, nil)
		as := m.AddressSpace()
		if n := countEligible(as); n == 0 {
			t.Fatal("no eligible corruption targets")
		}
		// Unit 0 is buf (the first registered global); flip a bit of its
		// third byte. Offsets wrap mod the unit size, exercising the
		// same path the campaign uses.
		if !corruptKth(as, 0, 2+4*16, 0x40) {
			t.Fatal("corruptKth found no unit")
		}
		res := m.Call("readonly_sum")
		if res.Outcome.Crashed() {
			t.Errorf("%v: crashed on in-bounds corruption: %v (%v)", mode, res.Outcome, res.Err)
		}
		if res.Value.I == 0 {
			t.Errorf("%v: corrupted sum still 0 — corruption not visible", mode)
		}
	}
}

func TestStrategyGeneratorsDeterministic(t *testing.T) {
	if v := StratZero.Generator(1).Next(4); v != 0 {
		t.Errorf("zero strategy manufactured %d", v)
	}
	if v := StratOne.Generator(1).Next(4); v != 1 {
		t.Errorf("one strategy manufactured %d", v)
	}
	if v := StratMax.Generator(1).Next(4); v != -1 {
		t.Errorf("max strategy manufactured %d", v)
	}
	a, b := StratRandom.Generator(42), StratRandom.Generator(42)
	for i := 0; i < 64; i++ {
		va, vb := a.Next(4), b.Next(4)
		if va != vb {
			t.Fatalf("random strategy not reproducible at %d: %d vs %d", i, va, vb)
		}
		if va < 0 || va > 255 {
			t.Fatalf("random strategy value %d out of byte range", va)
		}
	}
}

// TestStrategyDocMatchesTable pins the Strategy doc comment to
// strategyTable: every DescribeStrategies line must appear verbatim as a
// "//\t" doc line in inject.go, and Strategies must render from the table.
func TestStrategyDocMatchesTable(t *testing.T) {
	src, err := os.ReadFile("inject.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(DescribeStrategies(), "\n"), "\n") {
		doc := "//\t" + strings.TrimRight(line, " ")
		if !strings.Contains(string(src), doc) {
			t.Errorf("Strategy doc comment is missing table line %q", doc)
		}
	}
	if len(Strategies) != len(strategyTable) {
		t.Errorf("Strategies has %d entries, strategyTable %d", len(Strategies), len(strategyTable))
	}
	for i, r := range strategyTable {
		if Strategies[i] != r.name {
			t.Errorf("Strategies[%d] = %q, want %q", i, Strategies[i], r.name)
		}
	}
}
