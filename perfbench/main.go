// Command perfbench is the repository's serving benchmark. It drives the
// public serving surface (srv.New, srv.NewRouter, Router.Submit,
// Router.Metrics) with open-loop, fixed-rate load from nproc connections,
// checks every reply against golden outputs, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics measured through
// tracing wrappers around servers.Server and servers.Instance — ending
// with one JSON line. Workloads, frozen rates and limits are in
// workloads.json; expected replies in golden.json.
//
// Run it from the repository root, on Linux (the load generator sleeps on
// a timerfd):
//
//	bash perfbench/run.sh --workload pine-fo --seed 1 --seconds 50 --trace 0
//
// It exits non-zero on any wrong reply, conservation imbalance or set-up
// error. --write-golden regenerates golden.json from fresh instances.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name from workloads.json")
	seed := fs.Int64("seed", 1, "workload seed (request-kind order, connection stagger, tenant keys)")
	seconds := fs.Int("seconds", 20, "measurement time in seconds (set-up excluded)")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics and tracing overhead")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "perfbench", "spans"), "where a traced run writes its spans")
	goldenOut := fs.String("write-golden", "", "write the golden replies to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *goldenOut != "" {
		data, err := writeGolden()
		if err == nil {
			err = os.WriteFile(*goldenOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	b, err := newBench(w, *seed, nproc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d nproc %d GOMAXPROCS %d connections %d trace %d\n",
		w.Name, *seed, nproc, runtime.GOMAXPROCS(0), b.conns, *trace)
	budget := time.Duration(*seconds) * time.Second

	var res result
	if *trace == 0 {
		m, err := b.measure(budget, false)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		e := b.endToEnd(m)
		b.describe(stdout, m, e)
		res = newResult(m, e)
	} else {
		u, err := b.measure(budget/2, false)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: untraced half:", err)
			return 1
		}
		t, err := b.measure(budget/2, true)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: traced half:", err)
			return 1
		}
		eu, et := b.endToEnd(u), b.endToEnd(t)
		b.describe(stdout, u, eu)
		b.describe(stdout, t, et)
		path := filepath.Join(*spansDir, w.Name+".csv")
		if err := writeSpans(path, b.kinds, t.heavySpans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d heavy-phase spans written to %s\n", len(t.heavySpans), path)
		res = newResult(u, b.perLayer(u, t, eu, et))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure: its value and, for an end-to-end time or
// rate that value scales to the reference host speed, the raw figure.
type metric struct {
	name  string
	unit  string
	value float64
	raw   float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// newResult counts the accepted light and heavy chunks' requests. They
// drain (see schedule.Drain), so the count is the same on every run; the
// max-rate probes overload the server on purpose and are not counted, nor
// are retaken chunks, whose replies were checked all the same. Any wrong
// reply has already failed the run, so a result is always correct.
func newResult(m *measurement, ms []metric) result {
	r := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, p := range []measured{m.light, m.heavy} {
		t := p.totals()
		r.Attempted += t.sent
		r.Failed += t.failed + t.refused
	}
	for _, x := range ms {
		r.Metrics[x.name] = metricJSON{Value: x.value, Unit: x.unit}
	}
	return r
}
