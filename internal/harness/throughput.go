package harness

import (
	"context"
	"fmt"
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

// FormatThroughput renders §4.3.2-style results with ratios relative to the
// FailureOblivious row (which the paper reports as roughly 5.7x the Bounds
// Check version and 4.8x the Standard version).
func FormatThroughput(rows []ThroughputResult) string {
	var foThroughput float64
	for _, r := range rows {
		if r.Mode == fo.FailureOblivious {
			foThroughput = r.Throughput
		}
	}
	out := fmt.Sprintf("%-18s %-12s %-10s %-12s %s\n",
		"Version", "Legit req/s", "Crashes", "Legit done", "FO speedup")
	for _, r := range rows {
		ratio := "1.0"
		if r.Throughput > 0 && foThroughput > 0 && r.Mode != fo.FailureOblivious {
			ratio = fmt.Sprintf("%.1f", foThroughput/r.Throughput)
		}
		out += fmt.Sprintf("%-18s %-12.1f %-10d %-12d %s\n",
			r.Mode, r.Throughput, r.Crashes, r.LegitDone, ratio)
	}
	return out
}
