package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
)

// ThroughputResult is one row of the §4.3.2 throughput experiment.
type ThroughputResult struct {
	Mode      fo.Mode
	LegitDone int
	Attacks   int
	// Crashes counts requests that killed their child. The pool replaces
	// every crashed child eagerly, so this is also the number of child
	// regenerations the run paid for.
	Crashes    int
	Elapsed    time.Duration
	Throughput float64 // legitimate requests per second
}

// AttackThroughput measures legitimate-request throughput while the pool is
// being flooded with attack requests: between consecutive legitimate
// fetches, attacksPerLegit attack requests arrive (the paper used several
// machines to load the server with attack requests while one client
// repeatedly fetched the project home page).
//
// The pool is Apache's regenerating pool of child processes on the serving
// engine: poolSize children plus poolSize pre-created warm spares (Apache
// pre-forks children before they are needed). Apache regenerates a crashed
// child at once, so the restart circuit breaker is off and the restart
// backoff is the shortest the engine accepts: a crashed child is replaced
// at real instance-creation cost — paid by the spare filler, or in line
// when crashes outpace it — with no pacing sleep on top. That cost is
// exactly the overhead the paper attributes the Standard/BoundsCheck
// throughput loss to. The client is sequential: one request at a time.
func AttackThroughput(srv servers.Server, mode fo.Mode, poolSize, legitN, attacksPerLegit int) (ThroughputResult, error) {
	pool, err := serve.New(srv, mode, serve.WithPoolSize(poolSize),
		serve.WithWarmSpares(poolSize), serve.WithBreaker(0, 0),
		serve.WithBackoff(time.Nanosecond, time.Nanosecond))
	if err != nil {
		return ThroughputResult{}, err
	}
	defer pool.Close()
	ctx := context.Background()
	legit := srv.LegitRequests()[0]
	attack := srv.AttackRequest()
	res := ThroughputResult{Mode: mode}
	start := time.Now()
	for i := 0; i < legitN; i++ {
		for a := 0; a < attacksPerLegit; a++ {
			if _, err := pool.Submit(ctx, attack); err != nil {
				return res, err
			}
			res.Attacks++
		}
		resp, err := pool.Submit(ctx, legit)
		if err != nil {
			return res, err
		}
		if resp.Crashed() {
			// Lost (the real client would retry); count it as not done.
			continue
		}
		res.LegitDone++
	}
	res.Elapsed = time.Since(start)
	// Crashes, not Restarts: the engine counts a crash before replying, so
	// the count is exact here, while the last respawns may still be in
	// flight.
	res.Crashes = int(pool.Stats().Crashes)
	if res.Elapsed > 0 {
		res.Throughput = float64(res.LegitDone) / res.Elapsed.Seconds()
	}
	return res, nil
}

// RepeatThroughput runs AttackThroughput repeats times for each of modes,
// interleaving the modes within each repeat so a slow stretch of a shared
// host hits them alike. runs[i] holds the repeats of modes[i], in order. A
// single wall-clock sample of this experiment swings by up to 2× on a
// shared VM, so one run cannot order the modes reliably.
func RepeatThroughput(srv servers.Server, modes []fo.Mode, poolSize, legitN, attacksPerLegit, repeats int) (runs [][]ThroughputResult, err error) {
	runs = make([][]ThroughputResult, len(modes))
	for rep := 0; rep < repeats; rep++ {
		for i, mode := range modes {
			r, err := AttackThroughput(srv, mode, poolSize, legitN, attacksPerLegit)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", mode, err)
			}
			runs[i] = append(runs[i], r)
		}
	}
	return runs, nil
}

// quartiles returns the nearest-rank first quartile, median and third
// quartile of xs (sorted in place). xs must not be empty.
func quartiles(xs []float64) (q1, median, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	return xs[n/4], xs[n/2], xs[3*n/4]
}

// FormatThroughputSummary renders the repeated experiment (one slice of
// runs per mode, as RepeatThroughput returns them) with ratios relative to
// the FailureOblivious row (which the paper reports as roughly 5.7x the
// Bounds Check version and 4.8x the Standard version): per mode, the
// median legit req/s with its quartiles, the crashes per run, and the FO
// speedup as the ratio of medians. The crash counts are deterministic, so
// a mode whose runs disagree shows their range rather than one number.
func FormatThroughputSummary(runs [][]ThroughputResult) string {
	type row struct {
		mode           fo.Mode
		q1, median, q3 float64
		crashes        string
	}
	rows := make([]row, 0, len(runs))
	var foMedian float64
	for _, rs := range runs {
		if len(rs) == 0 {
			continue
		}
		tput := make([]float64, len(rs))
		lo, hi := rs[0].Crashes, rs[0].Crashes
		for i, r := range rs {
			tput[i] = r.Throughput
			lo, hi = min(lo, r.Crashes), max(hi, r.Crashes)
		}
		r := row{mode: rs[0].Mode, crashes: fmt.Sprint(lo)}
		if lo != hi {
			r.crashes = fmt.Sprintf("%d–%d", lo, hi)
		}
		r.q1, r.median, r.q3 = quartiles(tput)
		if r.mode == fo.FailureOblivious {
			foMedian = r.median
		}
		rows = append(rows, r)
	}
	out := fmt.Sprintf("%-18s %-14s %-20s %-8s %s\n",
		"Version", "Legit req/s", "Quartiles", "Crashes", "FO speedup")
	for _, r := range rows {
		ratio := "1.0"
		if r.median > 0 && foMedian > 0 && r.mode != fo.FailureOblivious {
			ratio = fmt.Sprintf("%.1f", foMedian/r.median)
		}
		out += fmt.Sprintf("%-18s %-14.1f %-20s %-8s %s\n",
			r.mode, r.median, fmt.Sprintf("%.1f–%.1f", r.q1, r.q3), r.crashes, ratio)
	}
	if len(rows) > 0 {
		out += fmt.Sprintf("(median and quartiles of %d runs per version)\n", len(runs[0]))
	}
	return out
}
