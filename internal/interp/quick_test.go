package interp_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"focc/internal/core"
	"focc/internal/corpus"
	"focc/internal/interp"
	"focc/internal/libc"
)

// Differential test: random integer expressions are rendered to C, executed
// by the tree-walk engine, and compared against a Go reference evaluator
// that implements C's int (32-bit, wrapping) semantics. The trial sequence
// is deterministic (corpus.QuickTrials); the first corpus.QuickGenTrials
// trials also run the ahead-of-time generated engine from the checked-in
// internal/gencorpus package, asserting identical results, event-log
// snapshots, and simulated cycles per seed across both engines. The
// remaining trials get the same engine diff in internal/gen's
// TestEmitBuildAndDiff, which emits and builds their code at test time.

// quickObs is everything one engine observes for one trial.
type quickObs struct {
	outcome interp.Outcome
	value   int64
	cycles  uint64
	log     core.Snapshot
}

func runQuickTrial(t *testing.T, i int, tr corpus.QuickTrial, engine string) quickObs {
	t.Helper()
	prog := compile(t, tr.Src)
	cfg := engineConfig(t, engine, tr.Src)
	cfg.Mode = core.BoundsCheck
	m, err := interp.New(prog, cfg)
	if err != nil {
		t.Fatalf("trial %d (%s): %v\nsrc: %s", i, engine, err, tr.Src)
	}
	res := m.Call("f", interp.Int(int64(tr.A)), interp.Int(int64(tr.B)), interp.Int(int64(tr.C)))
	return quickObs{
		outcome: res.Outcome,
		value:   res.Value.I,
		cycles:  m.SimCycles(),
		log:     m.Log().Snapshot(),
	}
}

func TestRandomExpressionsMatchReference(t *testing.T) {
	for i, tr := range corpus.QuickTrials(corpus.QuickTrialCount) {
		// The first QuickGenTrials trials have ahead-of-time generated
		// code checked in; running them without it is a corpus drift bug,
		// not a skip.
		engines := engineNames
		if i >= corpus.QuickGenTrials {
			engines = engineNames[:1]
		}
		ref := runQuickTrial(t, i, tr, engines[0])
		if ref.outcome != interp.OutcomeOK {
			t.Fatalf("trial %d: outcome %v\nsrc: %s", i, ref.outcome, tr.Src)
		}
		if ref.value != int64(tr.Want) {
			t.Fatalf("trial %d: f(%d,%d,%d) = %d, want %d\nsrc: %s",
				i, tr.A, tr.B, tr.C, ref.value, tr.Want, tr.Src)
		}
		for _, engine := range engines[1:] {
			obs := runQuickTrial(t, i, tr, engine)
			if obs.outcome != ref.outcome || obs.value != ref.value || obs.cycles != ref.cycles {
				t.Fatalf("trial %d: %s = %+v, tree-walk = %+v\nsrc: %s",
					i, engine, obs, ref, tr.Src)
			}
			if !reflect.DeepEqual(obs.log, ref.log) {
				t.Fatalf("trial %d: %s event log diverges\nsrc: %s", i, engine, tr.Src)
			}
		}
	}
}

// Differential test for the C string functions against Go references,
// through the checked access path with random contents.
func TestRandomStringOpsMatchReference(t *testing.T) {
	const src = `
#include <string.h>
char dst[512];
unsigned long do_strlen(const char *s) { return strlen(s); }
int do_strcmp(const char *a, const char *b) { return strcmp(a, b); }
char *do_strcpy(const char *s) { strcpy(dst, s); return dst; }
char *do_strcat(const char *a, const char *b) {
	strcpy(dst, a);
	strcat(dst, b);
	return dst;
}
char *do_strchr(const char *s, int c) { return strchr(s, c); }
`
	prog := compileWithCPP(t, src)
	m, err := interp.New(prog, interp.Config{
		Mode: core.BoundsCheck, Builtins: libc.Builtins(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	randStr := func(max int) string {
		n := rng.Intn(max)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(94) + 33) // printable, no NUL
		}
		return string(b)
	}
	for i := 0; i < 150; i++ {
		s1 := randStr(60)
		s2 := randStr(60)

		res := m.Call("do_strlen", m.NewCString(s1))
		if res.Outcome != interp.OutcomeOK || res.Value.I != int64(len(s1)) {
			t.Fatalf("strlen(%q) = %v/%d", s1, res.Outcome, res.Value.I)
		}

		res = m.Call("do_strcmp", m.NewCString(s1), m.NewCString(s2))
		sign := func(v int64) int {
			switch {
			case v < 0:
				return -1
			case v > 0:
				return 1
			}
			return 0
		}
		if sign(res.Value.I) != sign(int64(strings.Compare(s1, s2))) {
			t.Fatalf("strcmp(%q, %q) = %d", s1, s2, res.Value.I)
		}

		res = m.Call("do_strcat", m.NewCString(s1), m.NewCString(s2))
		got, err := m.ReadCString(res.Value, 512)
		if err != nil || got != s1+s2 {
			t.Fatalf("strcat(%q, %q) = %q, %v", s1, s2, got, err)
		}

		if len(s1) > 0 {
			ch := s1[rng.Intn(len(s1))]
			res = m.Call("do_strchr", m.NewCString(s1), interp.Int(int64(ch)))
			got, err := m.ReadCString(res.Value, 512)
			if err != nil {
				t.Fatalf("strchr read: %v", err)
			}
			idx := strings.IndexByte(s1, ch)
			if got != s1[idx:] {
				t.Fatalf("strchr(%q, %q) = %q, want %q", s1, ch, got, s1[idx:])
			}
		}
	}
}
