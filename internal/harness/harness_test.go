package harness

import (
	"strings"
	"testing"

	"focc/fo"
	_ "focc/internal/genservers" // run the five servers on the engine that ships
	"focc/internal/servers"
	"focc/internal/servers/apache"
	"focc/internal/servers/mc"
	"focc/internal/servers/mutt"
	"focc/internal/servers/pine"
	"focc/internal/servers/sendmail"
)

// AllServers returns the paper's five servers.
func allServers() []servers.Server {
	return []servers.Server{
		pine.NewServer(),
		apache.NewServer(),
		sendmail.NewServer(),
		mc.NewServer(),
		mutt.NewServer(),
	}
}

func TestResilienceMatrixShape(t *testing.T) {
	rows, err := ResilienceMatrix(allServers(), Modes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("got %d rows, want 15 (5 servers x 3 versions)", len(rows))
	}
	for _, r := range rows {
		switch r.Mode {
		case fo.Standard:
			if !r.AttackOutcome.Crashed() {
				t.Errorf("%s standard: attack outcome %v, want a crash", r.Server, r.AttackOutcome)
			}
		case fo.BoundsCheck:
			if r.AttackOutcome != fo.OutcomeMemErrorTermination {
				t.Errorf("%s bounds: attack outcome %v, want termination", r.Server, r.AttackOutcome)
			}
		case fo.FailureOblivious:
			if r.AttackOutcome != fo.OutcomeOK {
				t.Errorf("%s oblivious: attack outcome %v, want ok", r.Server, r.AttackOutcome)
			}
			if !r.PostAttackOK {
				t.Errorf("%s oblivious: server not serving after attack", r.Server)
			}
			if r.ErrorsLogged == 0 {
				t.Errorf("%s oblivious: no memory errors logged", r.Server)
			}
		}
	}
}

func TestVariantsMatrixSurvives(t *testing.T) {
	// Paper §5.1: "our set of servers works acceptably with both of
	// these variants."
	rows, err := ResilienceMatrix(allServers(), VariantModes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AttackOutcome.Crashed() {
			t.Errorf("%s %v: attack crashed the server (%v)", r.Server, r.Mode, r.AttackOutcome)
		}
		if !r.PostAttackOK {
			t.Errorf("%s %v: not serving after attack", r.Server, r.Mode)
		}
	}
}

func TestAttackThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	const legitN, attacksPerLegit, repeats = 20, 3, 3
	runs, err := RepeatThroughput(apache.NewServer(), Modes, 4, legitN, attacksPerLegit, repeats)
	if err != nil {
		t.Fatal(err)
	}
	tput := map[fo.Mode][]float64{}
	for _, rs := range runs {
		for _, r := range rs {
			// The counts are deterministic: every attack kills its child
			// under Standard and BoundsCheck and none does under Failure
			// Oblivious, and a legit fetch always reaches a live child.
			wantCrashes := legitN * attacksPerLegit
			if r.Mode == fo.FailureOblivious {
				wantCrashes = 0
			}
			if r.Crashes != wantCrashes {
				t.Errorf("%v: %d crashes, want %d", r.Mode, r.Crashes, wantCrashes)
			}
			if r.LegitDone != legitN || r.Attacks != legitN*attacksPerLegit {
				t.Errorf("%v: %d legit done, %d attacks; want %d, %d",
					r.Mode, r.LegitDone, r.Attacks, legitN, legitN*attacksPerLegit)
			}
			tput[r.Mode] = append(tput[r.Mode], r.Throughput)
		}
	}
	// The paper's shape: the Failure Oblivious version sustains the
	// highest throughput because it never pays process-restart overhead.
	// Wall-clock throughput is judged on the median of the repeats, so one
	// descheduled run under parallel test load cannot flip the order.
	median := func(xs []float64) float64 {
		_, m, _ := quartiles(xs)
		return m
	}
	foR, bc, std := median(tput[fo.FailureOblivious]), median(tput[fo.BoundsCheck]), median(tput[fo.Standard])
	if !(foR > bc) || !(foR > std) {
		t.Errorf("median throughput ordering wrong: fo=%.1f bounds=%.1f std=%.1f", foR, bc, std)
	}
}

func TestSoakFailureObliviousNeverRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	for _, srv := range allServers() {
		res, err := Soak(srv, fo.FailureOblivious, 60, 7)
		if err != nil {
			t.Fatalf("%s: %v", srv.Name(), err)
		}
		if res.Crashes != 0 || res.Restarts != 0 {
			t.Errorf("%s: oblivious soak crashed %d times", srv.Name(), res.Crashes)
		}
		if res.Attacks == 0 {
			t.Errorf("%s: soak ran no attacks", srv.Name())
		}
	}
}

func TestFormatters(t *testing.T) {
	rows := []PerfRow{{Request: "Read", Standard: Sample{MeanMs: 1, StdevPc: 2, N: 20},
		Failure: Sample{MeanMs: 3, StdevPc: 1, N: 20}, Slowdown: 3}}
	out := FormatPerfTable("Figure X", rows)
	if !strings.Contains(out, "Read") || !strings.Contains(out, "3.00") {
		t.Errorf("perf table: %q", out)
	}
	rrows := []ResilienceRow{{Server: "mutt", Mode: fo.Standard,
		AttackOutcome: fo.OutcomeSegfault}}
	if !strings.Contains(FormatResilience(rrows), "mutt") {
		t.Error("resilience table missing server")
	}
	runs := make([][]ThroughputResult, 2)
	for i, std := range []float64{12, 9, 10, 14, 8} {
		runs[0] = append(runs[0], ThroughputResult{Mode: fo.Standard, Throughput: std, Crashes: 150})
		runs[1] = append(runs[1], ThroughputResult{Mode: fo.FailureOblivious, Throughput: 50 + float64(i)*2.5})
	}
	runs[1][3].Crashes = 1
	if out := FormatThroughputSummary(runs); !strings.Contains(out, "5.5") ||
		!strings.Contains(out, "9.0–12.0") || !strings.Contains(out, " 150 ") ||
		!strings.Contains(out, "0–1") || !strings.Contains(out, "5 runs") {
		t.Errorf("throughput summary table: %q", out)
	}
	if q1, m, q3 := quartiles([]float64{5, 1, 4, 2, 3}); q1 != 2 || m != 3 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, %v; want 2, 3, 4", q1, m, q3)
	}
}

// serverMakers returns fresh-server constructors (for experiments that need
// isolated host-side state per instance).
func serverMakers() []func() servers.Server {
	return []func() servers.Server{
		func() servers.Server { return pine.NewServer() },
		func() servers.Server { return apache.NewServer() },
		func() servers.Server { return sendmail.NewServer() },
		func() servers.Server { return mc.NewServer() },
		func() servers.Server { return mutt.NewServer() },
	}
}

func TestTxTermComparisonSurvivesAttacks(t *testing.T) {
	// Paper §5.2: transactional function termination also lets servers
	// continue acceptably after buffer-overflow attacks — "consistent
	// with our experience" with failure-oblivious computing. All five
	// servers must survive the attack and keep serving under TxTerm.
	rows, err := ResilienceMatrix(allServers(), []fo.Mode{fo.TxTerm})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AttackOutcome.Crashed() {
			t.Errorf("%s txterm: attack crashed the server (%v)", r.Server, r.AttackOutcome)
		}
		if !r.PostAttackOK {
			t.Errorf("%s txterm: not serving after attack", r.Server)
		}
	}
}
