// Command fobench regenerates the paper's evaluation tables and figures.
//
// Experiments (this block is rendered from the experiments table below and
// also printed by "fobench -experiment list"; a test keeps them in sync):
//
//	fobench -experiment all          # every experiment below except campaign and cluster
//	fobench -experiment fig2         # Pine request times (Figure 2)
//	fobench -experiment fig3         # Apache request times (Figure 3)
//	fobench -experiment fig4         # Sendmail request times (Figure 4)
//	fobench -experiment fig5         # Midnight Commander times (Figure 5)
//	fobench -experiment fig6         # Mutt request times (Figure 6)
//	fobench -experiment throughput   # Apache attack throughput (§4.3.2)
//	fobench -experiment loadtest     # concurrent §4.3.2 (serve.Engine pool)
//	fobench -experiment resilience   # security & resilience matrix (§4.*.2)
//	fobench -experiment variants     # boundless / redirect variants (§5.1)
//	fobench -experiment soak         # stability runs (§4.*.4)
//	fobench -experiment errlog       # per-mode memory-error event profiles (§3)
//	fobench -experiment propagation  # error propagation distance (§1.2)
//	fobench -experiment ablation     # manufactured-value sequence (§3)
//	fobench -experiment campaign     # seeded 4-way fault-injection campaign incl. rewind (internal/inject)
//	fobench -experiment strategysearch # per-site manufactured-value strategy search (fo-context)
//	fobench -experiment cluster      # sharded router goodput under open-loop overload
//	fobench -experiment list         # print this experiment table
//
// The -engine flag pins the execution engine behind every server machine
// (the simulated-cycle numbers are engine-independent by construction;
// only wall-clock -wall runs differ). Left empty, the default, it leaves
// the choice to fo.Program.NewMachine, which runs the five servers'
// generated code (linked into this binary). The campaign and
// strategysearch experiments build their own instances and always run
// that default:
//
//	fobench -engine codegen          # ahead-of-time generated Go (internal/genservers)
//	fobench -engine treewalk         # AST-walking reference engine
//
// Profiling (any experiment, including "all"; a test keeps these lines in
// sync with the registered flags):
//
//	fobench -cpuprofile cpu.pprof    # CPU profile of the whole run, written on exit
//	fobench -memprofile mem.pprof    # heap profile written at exit
//
// Absolute times are from the Go interpreter, not the paper's 2004 testbed;
// the slowdown and ratio *shapes* are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"focc/fo"
	_ "focc/internal/genservers" // registers the servers' generated engines (-engine codegen)
	"focc/internal/harness"
	"focc/internal/inject"
	"focc/internal/serve"
	"focc/internal/servers"
	"focc/internal/servers/registry"
)

// engineHook is the -engine selection, applied to every server machine
// configuration; nil leaves the choice to fo.Program.NewMachine, which
// runs the servers' generated engine (linked into this binary).
var engineHook servers.ConfigHook

// setEngine translates the -engine flag into engineHook. Every named
// engine is pinned explicitly in the machine configuration; the empty
// name selects the library default.
func setEngine(name string) error {
	var engine fo.Engine
	switch name {
	case "":
		engineHook = nil
		return nil
	case "treewalk":
		engine = fo.EngineTreeWalk
	case "codegen":
		engine = fo.EngineGenerated
	default:
		return fmt.Errorf("unknown engine %q (want treewalk or codegen)", name)
	}
	engineHook = func(cfg *fo.MachineConfig) { cfg.Engine = engine }
	return nil
}

// engineServer forces every instance of the wrapped server onto the
// selected engine; hooks from other tooling compose after the engine hook
// so they can still override generators or budgets.
type engineServer struct {
	servers.Server
	hook servers.ConfigHook
}

func (s engineServer) New(mode fo.Mode) (servers.Instance, error) {
	return s.NewWithConfig(mode, nil)
}

func (s engineServer) NewWithConfig(mode fo.Mode, hook servers.ConfigHook) (servers.Instance, error) {
	c, ok := s.Server.(servers.Configurable)
	if !ok {
		return nil, fmt.Errorf("server %s does not support engine selection", s.Name())
	}
	return c.NewWithConfig(mode, func(cfg *fo.MachineConfig) {
		s.hook(cfg)
		if hook != nil {
			hook(cfg)
		}
	})
}

// withEngine wraps srv so its machines run on the -engine selection; the
// default needs no wrapper.
func withEngine(srv servers.Server) servers.Server {
	if engineHook == nil {
		return srv
	}
	return engineServer{Server: srv, hook: engineHook}
}

// mustServer builds a registered server by name; the names used here are
// registry constants, so failure is a programming error.
func mustServer(name string) servers.Server {
	srv, err := registry.New(name)
	if err != nil {
		panic(err)
	}
	return withEngine(srv)
}

// experiments is the single source of truth for the -experiment selector:
// "fobench -experiment list" prints it, and the package doc comment above
// embeds the same rendered block (TestUsageDocMatchesExperimentTable
// asserts the doc cannot drift from this table).
var experiments = []struct {
	id   string
	desc string
}{
	{"all", "every experiment below except campaign and cluster"},
	{"fig2", "Pine request times (Figure 2)"},
	{"fig3", "Apache request times (Figure 3)"},
	{"fig4", "Sendmail request times (Figure 4)"},
	{"fig5", "Midnight Commander times (Figure 5)"},
	{"fig6", "Mutt request times (Figure 6)"},
	{"throughput", "Apache attack throughput (§4.3.2)"},
	{"loadtest", "concurrent §4.3.2 (serve.Engine pool)"},
	{"resilience", "security & resilience matrix (§4.*.2)"},
	{"variants", "boundless / redirect variants (§5.1)"},
	{"soak", "stability runs (§4.*.4)"},
	{"errlog", "per-mode memory-error event profiles (§3)"},
	{"propagation", "error propagation distance (§1.2)"},
	{"ablation", "manufactured-value sequence (§3)"},
	{"campaign", "seeded 4-way fault-injection campaign incl. rewind (internal/inject)"},
	{"strategysearch", "per-site manufactured-value strategy search (fo-context)"},
	{"cluster", "sharded router goodput under open-loop overload"},
	{"list", "print this experiment table"},
}

// experimentTable renders the experiments table; the package doc comment
// embeds exactly these lines.
func experimentTable() string {
	var sb strings.Builder
	for _, e := range experiments {
		fmt.Fprintf(&sb, "fobench -experiment %-12s # %s\n", e.id, e.desc)
	}
	return sb.String()
}

// campaignOpts carries the fault-injection campaign's flags.
type campaignOpts struct {
	seed    int64
	faults  int
	out     string // write the JSON report here ("" = table only)
	servers string // comma-separated subset ("" = all five)
	modes   string // comma-separated mode subset ("" = the 4-way matrix)
}

// searchOpts carries the strategy-search experiment's flags (-seed,
// -faults, and -campaign-servers are shared with the campaign).
type searchOpts struct {
	seed    int64
	faults  int
	out     string // write the JSON report here ("" = table only)
	servers string // comma-separated subset ("" = all five)
	budget  int    // candidate evaluations per server
}

// clusterOpts carries the cluster experiment's flags.
type clusterOpts struct {
	seed     int64
	duration time.Duration // open-loop generation time per cell
	clients  int           // simulated clients for the 2× scale cell (0 = skip it)
	out      string        // write the JSON report here ("" = table only)
}

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (see -experiment list)")
	engine := flag.String("engine", "", "execution engine for server machines: treewalk or codegen (default: codegen where generated code is linked)")
	reps := flag.Int("reps", harness.DefaultReps, "repetitions per request")
	soakN := flag.Int("soak-n", 200, "requests per soak run")
	wall := flag.Bool("wall", false, "measure figures in wall-clock time instead of simulated cycles")
	clients := flag.Int("clients", 8, "loadtest: concurrent client goroutines")
	pool := flag.Int("pool", 4, "loadtest: serving-pool size (worker instances)")
	queue := flag.Int("queue", 0, "loadtest: admission queue depth (0 = 2x clients)")
	deadline := flag.Duration("deadline", 2*time.Second, "loadtest: per-request deadline (0 = none)")
	attacks := flag.Int("attacks-per-legit", 3, "loadtest: attack requests per legitimate request")
	legitN := flag.Int("legit-per-client", 10, "loadtest: legitimate requests per client")
	seed := flag.Int64("seed", 1, "PRNG seed (loadtest request mix; campaign plan)")
	faults := flag.Int("faults", 40, "campaign: fault points sampled per server")
	campaignOut := flag.String("campaign-out", "", "campaign: write the JSON report to this file")
	campaignServers := flag.String("campaign-servers", "", "campaign: comma-separated server subset (default all five)")
	campaignModes := flag.String("campaign-modes", "",
		"campaign: comma-separated mode subset, e.g. failure-oblivious,rewind (default standard,bounds-check,failure-oblivious,rewind)")
	searchOut := flag.String("search-out", "", "strategysearch: write the JSON report to this file")
	searchBudget := flag.Int("search-budget", 200, "strategysearch: candidate evaluations per server")
	clusterOut := flag.String("cluster-out", "", "cluster: write the JSON report to this file")
	clusterDur := flag.Duration("cluster-duration", time.Second, "cluster: open-loop generation time per cell")
	clusterClients := flag.Int("cluster-clients", 100000,
		"cluster: simulated clients for the 2x-overload scale cell (0 = skip it)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	if err := setEngine(*engine); err != nil {
		fmt.Fprintln(os.Stderr, "fobench:", err)
		os.Exit(1)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fobench:", err)
		os.Exit(1)
	}
	clock := harness.SimClock
	if *wall {
		clock = harness.WallClock
	}
	cfg := harness.LoadtestConfig{
		Clients:         *clients,
		PoolSize:        *pool,
		QueueDepth:      *queue,
		Deadline:        *deadline,
		AttacksPerLegit: *attacks,
		LegitPerClient:  *legitN,
		Seed:            *seed,
	}
	co := campaignOpts{seed: *seed, faults: *faults, out: *campaignOut, servers: *campaignServers, modes: *campaignModes}
	so := searchOpts{seed: *seed, faults: *faults, out: *searchOut, servers: *campaignServers, budget: *searchBudget}
	cl := clusterOpts{seed: *seed, duration: *clusterDur, clients: *clusterClients, out: *clusterOut}
	if err := dispatch(*experiment, *reps, *soakN, clock, cfg, co, so, cl); err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "fobench:", err)
		os.Exit(1)
	}
	stopProfiles()
}

// startProfiles starts pprof collection per the -cpuprofile/-memprofile
// flags and returns the function that flushes both files — called on every
// exit path so profiles survive experiment errors too. Profiling without
// code edits is the point: any experiment (or the whole "all" sweep) can
// be profiled by adding a flag.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Printf("fobench: CPU profile written to %s\n", cpu)
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fobench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // collect garbage so the heap profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fobench: memprofile:", err)
				return
			}
			fmt.Printf("fobench: heap profile written to %s\n", mem)
		}
	}, nil
}

// dispatch routes the experiment selector: the table-printing, campaign,
// and cluster experiments are handled here, everything else by runClock
// ("all" runs the runClock set — campaign and cluster are opt-in because
// they are the expensive ones).
func dispatch(experiment string, reps, soakN int, clock harness.Clock,
	loadCfg harness.LoadtestConfig, co campaignOpts, so searchOpts, cl clusterOpts) error {
	switch experiment {
	case "list":
		fmt.Print(experimentTable())
		return nil
	case "campaign":
		return runCampaign(co)
	case "strategysearch":
		return runStrategySearch(so)
	case "cluster":
		return runCluster(cl)
	}
	return runClock(experiment, reps, soakN, clock, loadCfg)
}

// runCluster calibrates the fleet's 1× capacity with a closed-loop burst,
// then drives the sharded router open loop at 1×/2×/4× offered load, with
// and without chaos injection, and prints the goodput-under-overload
// table. Failure-oblivious is the mode under test; Standard at 1× rides
// along as the contrast row (its pool burns capacity on restarts).
func runCluster(o clusterOpts) error {
	srv := mustServer("apache")
	base := harness.ClusterConfig{
		Shards:    2,
		PoolSize:  2,
		Tenants:   8,
		Quota:     4,
		SLO:       50 * time.Millisecond,
		TargetP95: 25 * time.Millisecond,
		Duration:  o.duration,
		Seed:      o.seed,
	}
	capacity, err := harness.ClusterCapacity(srv, fo.FailureOblivious, base)
	if err != nil {
		return fmt.Errorf("cluster calibration: %w", err)
	}
	rep := &harness.ClusterReport{
		Server:   srv.Name(),
		Capacity: capacity,
		SLOms:    float64(base.SLO) / float64(time.Millisecond),
	}
	run := func(mode fo.Mode, cfg harness.ClusterConfig, mult float64) error {
		cfg.Rate = mult * capacity
		res, err := harness.ClusterRun(srv, mode, cfg)
		if err != nil {
			return fmt.Errorf("cluster %v %.0fx: %w", mode, mult, err)
		}
		res.Load = mult
		rep.Cells = append(rep.Cells, res)
		return nil
	}
	fmt.Println("Sharded router under open-loop Poisson overload (goodput = OK responses within SLO)")
	for _, mult := range []float64{1, 2, 4} {
		for _, chaos := range []bool{false, true} {
			cfg := base
			if chaos {
				cfg.Chaos = serve.ChaosConfig{KillEvery: 50}
			}
			if err := run(fo.FailureOblivious, cfg, mult); err != nil {
				return err
			}
		}
	}
	if err := run(fo.Standard, base, 1); err != nil {
		return err
	}
	// Scale cell: 2× overload sized to o.clients simulated clients — the
	// sharded generator groups must sustain the offered rate (GenSeconds in
	// the report stays near the window when they do), and failure-oblivious
	// goodput should hold flat at the calibrated capacity.
	if o.clients > 0 {
		cfg := base
		cfg.Duration = time.Duration(float64(o.clients) / (2 * capacity) * float64(time.Second))
		if err := run(fo.FailureOblivious, cfg, 2); err != nil {
			return err
		}
	}
	// Rebalance-under-chaos cell: Standard mode with periodic attack
	// arrivals crashes instances, a tight breaker trips shards, and the
	// router's ring reroutes their tenants — the Rebal column shows the
	// handoff volume while goodput holds.
	rebal := base
	rebal.AttackEvery = 10
	rebal.BreakerAfter = 2
	rebal.BreakerCooldown = 100 * time.Millisecond
	if err := run(fo.Standard, rebal, 1); err != nil {
		return err
	}
	fmt.Print(harness.FormatCluster(rep))
	fmt.Println()
	if o.out != "" {
		data, err := rep.JSON()
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		fmt.Printf("cluster: JSON report written to %s\n", o.out)
	}
	return nil
}

// runCampaign builds a plan from the flags, runs the fault-injection
// campaign, prints the human-readable table, and optionally writes the
// byte-stable JSON report (the artifact two runs with the same seed
// reproduce bit for bit).
func runCampaign(o campaignOpts) error {
	plan := inject.DefaultPlan(o.seed, o.faults)
	if o.servers != "" {
		for _, name := range strings.Split(o.servers, ",") {
			plan.Servers = append(plan.Servers, strings.TrimSpace(name))
		}
	}
	if o.modes != "" {
		for _, name := range strings.Split(o.modes, ",") {
			mode, err := fo.ParseMode(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
			plan.Modes = append(plan.Modes, mode)
		}
	}
	rep, err := inject.Run(plan, inject.AllTargets())
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	fmt.Print(inject.FormatReport(rep))
	if o.out != "" {
		data, err := rep.JSON()
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		fmt.Printf("campaign: JSON report written to %s\n", o.out)
	}
	return nil
}

// runStrategySearch runs the per-site manufactured-value strategy search
// (internal/inject.Search over fo.ModeFOContext), prints the summary table,
// and optionally writes the byte-stable JSON report.
func runStrategySearch(o searchOpts) error {
	plan := inject.SearchPlan{Seed: o.seed, Faults: o.faults, Budget: o.budget}
	if o.servers != "" {
		for _, name := range strings.Split(o.servers, ",") {
			plan.Servers = append(plan.Servers, strings.TrimSpace(name))
		}
	}
	rep, err := inject.Search(plan, inject.AllTargets())
	if err != nil {
		return fmt.Errorf("strategysearch: %w", err)
	}
	fmt.Print(inject.FormatSearchReport(rep))
	if o.out != "" {
		data, err := rep.JSON()
		if err != nil {
			return fmt.Errorf("strategysearch: %w", err)
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return fmt.Errorf("strategysearch: %w", err)
		}
		fmt.Printf("strategysearch: JSON report written to %s\n", o.out)
	}
	return nil
}

// allServers returns fresh instances of every registered server, in paper
// order (the registry is the single source of truth for the server set),
// each bound to the -engine selection.
func allServers() []servers.Server {
	all := registry.All()
	for i, srv := range all {
		all[i] = withEngine(srv)
	}
	return all
}

func run(experiment string, reps, soakN int) error {
	return runClock(experiment, reps, soakN, harness.SimClock, harness.LoadtestConfig{})
}

func runClock(experiment string, reps, soakN int, clock harness.Clock, loadCfg harness.LoadtestConfig) error {
	all := experiment == "all"
	type fig struct {
		id    string
		title string
		srv   servers.Server
		names []string
	}
	figures := []fig{
		{"fig2", "Figure 2: Request Processing Times for Pine (ms)",
			mustServer("pine"), []string{"Read", "Compose", "Move"}},
		{"fig3", "Figure 3: Request Processing Times for Apache (ms)",
			mustServer("apache"), []string{"Small", "Large"}},
		{"fig4", "Figure 4: Request Processing Times for Sendmail (ms)",
			mustServer("sendmail"), []string{"Recv Small", "Recv Large", "Send Small", "Send Large"}},
		{"fig5", "Figure 5: Request Processing Times for Midnight Commander (ms)",
			mustServer("mc"), []string{"Copy", "Move", "MkDir", "Delete"}},
		{"fig6", "Figure 6: Request Processing Times for Mutt (ms)",
			mustServer("mutt"), []string{"Read", "Move"}},
	}
	ran := false
	for _, f := range figures {
		if !all && experiment != f.id {
			continue
		}
		ran = true
		reqs := f.srv.LegitRequests()[:len(f.names)]
		rows, err := harness.PerfTableClock(f.srv, f.names, reqs, reps, clock)
		if err != nil {
			return fmt.Errorf("%s: %w", f.id, err)
		}
		fmt.Println(harness.FormatPerfTable(f.title, rows))
	}

	if all || experiment == "throughput" {
		ran = true
		fmt.Println("Apache throughput under attack (paper §4.3.2; FO reported ~5.7x Bounds, ~4.8x Standard)")
		var rows []harness.ThroughputResult
		for _, mode := range harness.Modes {
			r, err := harness.AttackThroughput(mustServer("apache"), mode, 4, 50, 3)
			if err != nil {
				return fmt.Errorf("throughput %v: %w", mode, err)
			}
			rows = append(rows, r)
		}
		fmt.Println(harness.FormatThroughput(rows))
	}

	if all || experiment == "loadtest" {
		ran = true
		fmt.Println("Concurrent Apache throughput under attack (serve.Engine pool; paper §4.3.2 under concurrent load)")
		var rows []harness.LoadtestResult
		for _, mode := range harness.Modes {
			r, err := harness.Loadtest(mustServer("apache"), mode, loadCfg)
			if err != nil {
				return fmt.Errorf("loadtest %v: %w", mode, err)
			}
			rows = append(rows, r)
		}
		fmt.Println(harness.FormatLoadtest(rows))
	}

	if all || experiment == "resilience" {
		ran = true
		fmt.Println("Security & resilience matrix (paper §4.2.2, §4.3.2, §4.4.2, §4.5.2, §4.6.2)")
		rows, err := harness.ResilienceMatrix(allServers(), harness.Modes)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatResilience(rows))
	}

	if all || experiment == "variants" {
		ran = true
		fmt.Println("Variants: boundless memory blocks and redirect-into-bounds (paper §5.1)")
		rows, err := harness.ResilienceMatrix(allServers(), harness.VariantModes)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatResilience(rows))
	}

	if all || experiment == "soak" {
		ran = true
		fmt.Println("Stability soak: requests with periodic attacks (paper §4.*.4)")
		fmt.Printf("%-10s %-18s %-9s %-8s %-8s %-9s %s\n",
			"Server", "Version", "Requests", "Attacks", "Crashes", "Restarts", "Errors logged")
		for _, srv := range allServers() {
			for _, mode := range []fo.Mode{fo.BoundsCheck, fo.FailureOblivious} {
				res, err := harness.Soak(srv, mode, soakN, 7)
				if err != nil {
					return fmt.Errorf("soak %s/%v: %w", srv.Name(), mode, err)
				}
				fmt.Printf("%-10s %-18s %-9d %-8d %-8d %-9d %d\n",
					srv.Name(), mode, res.Requests, res.Attacks,
					res.Crashes, res.Restarts, res.ErrorEvents)
			}
		}
		fmt.Println()
	}

	if all || experiment == "errlog" {
		ran = true
		fmt.Println("Memory-error event profiles per mode (paper §3 log; Standard omitted — it logs nothing)")
		rows, err := harness.ErrlogProfiles(allServers(), harness.ErrlogModes, 3)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatErrlog(rows))
	}

	if all || experiment == "propagation" {
		ran = true
		fmt.Println("Error propagation distance (paper §1.2: attacked vs clean twin, responses compared)")
		var rows []harness.PropagationResult
		for _, name := range registry.Names() {
			mk, err := registry.Factory(name)
			if err != nil {
				return fmt.Errorf("propagation: %w", err)
			}
			r, err := harness.ErrorPropagation(func() servers.Server { return withEngine(mk()) }, 12)
			if err != nil {
				return fmt.Errorf("propagation: %w", err)
			}
			rows = append(rows, r)
		}
		fmt.Println(harness.FormatPropagation(rows))
	}

	if all || experiment == "ablation" {
		ran = true
		if err := ablation(); err != nil {
			return err
		}
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q (see fobench -experiment list)", experiment)
	}
	return nil
}

// ablation compares the paper's small-integer manufactured-value sequence
// against a naive all-zeros generator on the Midnight Commander sentinel
// scan from §3: a loop searching past the end of a buffer for '/'.
func ablation() error {
	fmt.Println("Ablation: manufactured-value sequence (paper §3, Midnight Commander '/'-scan)")
	const src = `
int scan(void) {
	char buf[8];
	int i = 0;
	buf[0] = 'a';
	while (buf[i] != '/')
		i++;
	return i;
}
int main(void) { return scan(); }
`
	prog, err := fo.Compile("scan.c", src)
	if err != nil {
		return err
	}
	type genCase struct {
		name string
		gen  fo.ValueGenerator
	}
	for _, gc := range []genCase{
		{"small-int sequence (paper)", fo.NewSmallIntGenerator()},
		{"all zeros (naive)", fo.NewZeroGenerator()},
	} {
		m, err := prog.NewMachine(fo.MachineConfig{
			Mode: fo.FailureOblivious, Gen: gc.gen, MaxSteps: 2_000_000,
		})
		if err != nil {
			return err
		}
		res := m.Run()
		fmt.Printf("  %-28s -> outcome %-8s (steps %d)\n", gc.name, res.Outcome, res.Steps)
	}
	fmt.Println()
	return nil
}
