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

func TestChildPoolRestartsCrashedChildren(t *testing.T) {
	srv := apache.NewServer()
	pool, err := NewChildPool(srv, fo.BoundsCheck, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 4; i++ {
		if _, err := pool.Handle(srv.AttackRequest()); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := pool.Handle(srv.LegitRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() {
		t.Errorf("pool stopped serving: %v", resp)
	}
	if pool.Restarts() == 0 {
		t.Error("expected child restarts under attack")
	}
}

func TestAttackThroughputOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	srv := apache.NewServer()
	var rows []ThroughputResult
	for _, mode := range Modes {
		r, err := AttackThroughput(srv, mode, 4, 20, 3)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		rows = append(rows, r)
	}
	var std, bc, foR ThroughputResult
	for _, r := range rows {
		switch r.Mode {
		case fo.Standard:
			std = r
		case fo.BoundsCheck:
			bc = r
		case fo.FailureOblivious:
			foR = r
		}
	}
	// The paper's shape: the Failure Oblivious version sustains the
	// highest throughput because it never pays process-restart overhead.
	if foR.Restarts != 0 {
		t.Errorf("oblivious pool restarted %d children, want 0", foR.Restarts)
	}
	if std.Restarts == 0 || bc.Restarts == 0 {
		t.Errorf("standard/bounds pools should restart children (std=%d bc=%d)",
			std.Restarts, bc.Restarts)
	}
	if !(foR.Throughput > bc.Throughput) || !(foR.Throughput > std.Throughput) {
		t.Errorf("throughput ordering wrong: fo=%.1f bounds=%.1f std=%.1f",
			foR.Throughput, bc.Throughput, std.Throughput)
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
	trows := []ThroughputResult{
		{Mode: fo.FailureOblivious, Throughput: 57},
		{Mode: fo.BoundsCheck, Throughput: 10},
	}
	if !strings.Contains(FormatThroughput(trows), "5.7") {
		t.Errorf("throughput table: %q", FormatThroughput(trows))
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
