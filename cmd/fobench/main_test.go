package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/harness"
)

// The full "all" run is exercised by CI scripts; tests cover each
// experiment selector with small parameters.

func TestExperimentSelectors(t *testing.T) {
	for _, exp := range []string{"fig3", "fig6", "resilience", "variants", "ablation"} {
		if err := run(exp, 2, 20); err != nil {
			t.Errorf("experiment %q: %v", exp, err)
		}
	}
}

func TestSoakExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	if err := run("soak", 2, 20); err != nil {
		t.Errorf("soak: %v", err)
	}
}

func TestLoadtestExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("loadtest")
	}
	cfg := harness.LoadtestConfig{
		Clients:         8,
		PoolSize:        2,
		AttacksPerLegit: 1,
		LegitPerClient:  2,
		Deadline:        5 * time.Second,
	}
	if err := runClock("loadtest", 2, 20, harness.SimClock, cfg); err != nil {
		t.Errorf("loadtest: %v", err)
	}
}

// TestEngineSelection pins the -engine axis: the same Pine request runs on
// both engines (codegen resolves the server's generated code from the
// checked-in internal/genservers registration) and must burn the identical
// number of simulated cycles — the engine changes wall-clock dispatch cost
// only, never the cost model. Each name must run the engine it names, and
// the empty name, the flag's default, runs the library default: codegen,
// because it is registered. Unknown engine names, including the deleted
// "compiled", are rejected up front.
func TestEngineSelection(t *testing.T) {
	defer func(h func(*fo.MachineConfig)) { engineHook = h }(engineHook)
	req := mustServer("pine").LegitRequests()[0]
	var cycles []uint64
	for _, c := range []struct {
		name string
		want fo.Engine
	}{
		{"treewalk", fo.EngineTreeWalk},
		{"codegen", fo.EngineGenerated},
		{"", fo.EngineGenerated},
	} {
		if err := setEngine(c.name); err != nil {
			t.Fatalf("setEngine(%q): %v", c.name, err)
		}
		inst, err := mustServer("pine").New(fo.FailureOblivious)
		if err != nil {
			t.Fatalf("%q: %v", c.name, err)
		}
		if got := inst.(interface{ Machine() *fo.Machine }).Machine().Engine(); got != c.want {
			t.Errorf("-engine %q runs %v, want %v", c.name, got, c.want)
		}
		if resp := inst.Handle(req); resp.Outcome != fo.OutcomeOK {
			t.Fatalf("%q: %v", c.name, resp.Outcome)
		}
		cycles = append(cycles, inst.Cycles())
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] != cycles[0] {
			t.Errorf("sim cycles diverge across engines: %v", cycles)
			break
		}
	}
	for _, name := range []string{"jit", "compiled"} {
		if err := setEngine(name); err == nil {
			t.Errorf("setEngine(%q): expected error for unknown engine", name)
		}
	}
}

// The doc comment must mention every -engine value.
func TestUsageDocMentionsEngines(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"treewalk", "codegen"} {
		if !strings.Contains(string(src), "//\tfobench -engine "+engine) {
			t.Errorf("doc comment missing -engine %s line", engine)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run("nope", 2, 10); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// The package doc comment embeds the rendered experiments table; this test
// pins the two together so adding an experiment without updating the usage
// block (or vice versa) fails the build. The "list" experiment prints the
// same rendering, so it is covered by the same assertion.
func TestUsageDocMatchesExperimentTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(experimentTable(), "\n"), "\n") {
		want := "//\t" + line
		if !strings.Contains(string(src), want) {
			t.Errorf("doc comment missing experiment line %q", want)
		}
	}
}

func TestListExperiment(t *testing.T) {
	if err := dispatch("list", 1, 1, harness.SimClock, harness.LoadtestConfig{}, campaignOpts{}, searchOpts{}, clusterOpts{}); err != nil {
		t.Errorf("list: %v", err)
	}
	table := experimentTable()
	for _, id := range []string{"all", "fig2", "campaign", "list"} {
		if !strings.Contains(table, "-experiment "+id) {
			t.Errorf("experiment table missing %q", id)
		}
	}
}

func TestClusterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster")
	}
	out := filepath.Join(t.TempDir(), "cluster.json")
	cl := clusterOpts{seed: 7, duration: 150 * time.Millisecond, clients: 300, out: out}
	if err := dispatch("cluster", 1, 1, harness.SimClock, harness.LoadtestConfig{}, campaignOpts{}, searchOpts{}, cl); err != nil {
		t.Fatalf("cluster: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	// The report must carry the standard matrix plus the scale cell's
	// client accounting and the rebalance cell's handoff counter.
	for _, want := range []string{`"Server": "apache"`, `"Capacity"`, `"Goodput"`,
		`"failure-oblivious"`, `"Clients"`, `"GenSeconds"`, `"Rebalanced"`, `"InFlightPeak"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// The package doc comment documents the profiling flags; this pins the doc
// lines to the registered flag set so neither can drift alone.
func TestUsageDocMatchesProfilingFlags(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpuprofile", "memprofile"} {
		if !strings.Contains(string(src), "//\tfobench -"+name+" ") {
			t.Errorf("doc comment missing a usage line for -%s", name)
		}
	}
}

func TestCampaignExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	out := filepath.Join(t.TempDir(), "campaign.json")
	co := campaignOpts{seed: 7, faults: 4, out: out, servers: "pine"}
	if err := dispatch("campaign", 1, 1, harness.SimClock, harness.LoadtestConfig{}, co, searchOpts{}, clusterOpts{}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	for _, want := range []string{`"Seed": 7`, `"Server": "pine"`, `"failure-oblivious"`, `"rewind"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

// -campaign-modes restricts the matrix and accepts every parseable mode
// name, rewind included; unknown names are rejected up front.
func TestCampaignModesFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	out := filepath.Join(t.TempDir(), "campaign.json")
	co := campaignOpts{seed: 7, faults: 4, out: out, servers: "pine", modes: "failure-oblivious, rewind"}
	if err := dispatch("campaign", 1, 1, harness.SimClock, harness.LoadtestConfig{}, co, searchOpts{}, clusterOpts{}); err != nil {
		t.Fatalf("campaign: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("JSON report not written: %v", err)
	}
	if !strings.Contains(string(data), `"rewind"`) {
		t.Error("JSON report missing rewind cells")
	}
	if strings.Contains(string(data), `"bounds-check"`) {
		t.Error("JSON report contains a mode excluded by -campaign-modes")
	}

	co.modes = "bogus"
	if err := dispatch("campaign", 1, 1, harness.SimClock, harness.LoadtestConfig{}, co, searchOpts{}, clusterOpts{}); err == nil {
		t.Error("expected error for unknown campaign mode")
	}
}

// TestStrategySearchExperiment runs the per-site strategy search on one
// server with a small fault budget, checks the report shape, pins the
// determinism contract (two same-seed runs produce byte-identical JSON),
// and checks the acceptance floor: the searched assignment's survival never
// falls below the global small-integer baseline.
func TestStrategySearchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("strategysearch")
	}
	run := func(out string) []byte {
		t.Helper()
		so := searchOpts{seed: 7, faults: 6, out: out, servers: "pine", budget: 40}
		if err := dispatch("strategysearch", 1, 1, harness.SimClock, harness.LoadtestConfig{}, campaignOpts{}, so, clusterOpts{}); err != nil {
			t.Fatalf("strategysearch: %v", err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("JSON report not written: %v", err)
		}
		return data
	}
	dir := t.TempDir()
	a := run(filepath.Join(dir, "a.json"))
	b := run(filepath.Join(dir, "b.json"))
	if string(a) != string(b) {
		t.Error("two same-seed strategysearch runs produced different JSON")
	}
	for _, want := range []string{`"Seed": 7`, `"Server": "pine"`, `"Baseline"`, `"Best"`, `"BestAssignment"`} {
		if !strings.Contains(string(a), want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
	var rep struct {
		Servers []struct {
			Baseline, Best struct{ SurvivalRate float64 }
		}
	}
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	for _, s := range rep.Servers {
		if s.Best.SurvivalRate < s.Baseline.SurvivalRate {
			t.Errorf("best survival %.3f below smallint baseline %.3f",
				s.Best.SurvivalRate, s.Baseline.SurvivalRate)
		}
	}
}
