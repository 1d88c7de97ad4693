package harness

import (
	"strings"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/servers/apache"
)

// TestLoadtestFailureObliviousWins is the concurrent §4.3.2 regression: a
// mixed legit/attack workload from 8 clients must leave the
// failure-oblivious pool with higher legitimate throughput than the
// Standard and BoundsCheck pools, and with zero restarts.
func TestLoadtestFailureObliviousWins(t *testing.T) {
	if testing.Short() {
		t.Skip("loadtest experiment")
	}
	cfg := LoadtestConfig{
		Clients:         8,
		PoolSize:        4,
		AttacksPerLegit: 3,
		LegitPerClient:  4,
		Deadline:        5 * time.Second,
	}
	results := map[fo.Mode]LoadtestResult{}
	for _, mode := range Modes {
		r, err := Loadtest(apache.NewServer(), mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = r
	}
	foR := results[fo.FailureOblivious]
	if foR.Restarts != 0 {
		t.Errorf("failure-oblivious pool restarted %d instances, want 0", foR.Restarts)
	}
	if foR.LegitDone != cfg.Clients*cfg.LegitPerClient {
		t.Errorf("failure-oblivious legit done = %d, want %d",
			foR.LegitDone, cfg.Clients*cfg.LegitPerClient)
	}
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck} {
		r := results[mode]
		if r.Restarts == 0 {
			t.Errorf("%v pool had no restarts under attack", mode)
		}
		if !(foR.Throughput > r.Throughput) {
			t.Errorf("throughput ordering wrong: failure-oblivious %.1f <= %v %.1f",
				foR.Throughput, mode, r.Throughput)
		}
	}
	if foR.P50 <= 0 || foR.P95 < foR.P50 || foR.P99 < foR.P95 {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v",
			foR.P50, foR.P95, foR.P99)
	}
}

func TestPercentiles(t *testing.T) {
	var lats []time.Duration
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	p50, p95, p99 := percentiles(lats)
	if p50 != 50*time.Millisecond || p95 != 95*time.Millisecond || p99 != 99*time.Millisecond {
		t.Errorf("percentiles = %v %v %v, want 50ms 95ms 99ms", p50, p95, p99)
	}
	if a, b, c := percentiles(nil); a != 0 || b != 0 || c != 0 {
		t.Error("empty percentiles should be zero")
	}
}

// TestPercentilesNearestRank pins the nearest-rank definition (1-based rank
// ⌈p·n⌉) over awkward sample counts. The old round-half-up selection biased
// tails low: with n=151 it read rank 149 at p99 instead of 150.
func TestPercentilesNearestRank(t *testing.T) {
	// Samples are 1ms, 2ms, …, n ms, so the value at rank r is r ms.
	cases := []struct {
		n             int
		r50, r95, r99 int
	}{
		{1, 1, 1, 1},
		{2, 1, 2, 2},
		{5, 3, 5, 5},
		{7, 4, 7, 7},    // p99: ⌈6.93⌉ = 7; round-half-up gave 7 too
		{11, 6, 11, 11}, // p95: ⌈10.45⌉ = 11; round-half-up gave 10
		{20, 10, 19, 20},
		{53, 27, 51, 53},    // p95: ⌈50.35⌉ = 51; round-half-up gave 50
		{100, 50, 95, 99},   // exact products must not ceil up to 96/100
		{151, 76, 144, 150}, // the motivating case: p99 rank 150, not 149
		{1000, 500, 950, 990},
	}
	for _, c := range cases {
		lats := make([]time.Duration, c.n)
		for i := range lats {
			lats[i] = time.Duration(i+1) * time.Millisecond
		}
		p50, p95, p99 := percentiles(lats)
		if p50 != time.Duration(c.r50)*time.Millisecond ||
			p95 != time.Duration(c.r95)*time.Millisecond ||
			p99 != time.Duration(c.r99)*time.Millisecond {
			t.Errorf("n=%d: got ranks %v/%v/%v, want %d/%d/%d ms",
				c.n, p50, p95, p99, c.r50, c.r95, c.r99)
		}
	}
}

func TestFormatLoadtest(t *testing.T) {
	rows := []LoadtestResult{
		{Mode: fo.FailureOblivious, Throughput: 200, P50: time.Millisecond},
		{Mode: fo.Standard, Throughput: 40, P50: 60 * time.Millisecond},
	}
	out := FormatLoadtest(rows)
	if !strings.Contains(out, "5.0") {
		t.Errorf("expected 5.0 speedup ratio in table:\n%s", out)
	}
	if !strings.Contains(out, "p99") {
		t.Errorf("expected percentile headers in table:\n%s", out)
	}
}
