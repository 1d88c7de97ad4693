package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"
)

// fakeServer answers after a fixed service time, busy-waiting so the
// runtime's coarse sleep does not blur it.
func fakeServer(service time.Duration) sendFunc {
	return func(ctx context.Context, c, n int, due time.Time) reply {
		start := time.Now()
		for time.Since(start) < service {
		}
		return reply{legit: true, out: outOK, done: time.Now()}
	}
}

func latencies(p phaseStats) []float64 {
	var xs []float64
	for _, v := range p.conns[0].legitLat {
		xs = append(xs, float64(v))
	}
	return xs
}

func TestGeneratorBelowCapacity(t *testing.T) {
	const service = 200 * time.Microsecond
	p, err := generate(schedule{Rate: 1000, Conns: 1, Dur: 400 * time.Millisecond, Limit: time.Second}, fakeServer(service))
	if err != nil {
		t.Fatal(err)
	}
	tot := p.totals()
	if want := 400; tot.sent < want-2 || tot.sent > want+1 {
		t.Fatalf("sent %d requests, want about %d (1 ms interval for 400 ms)", tot.sent, want)
	}
	if tot.backlog != 0 || tot.failed != 0 || tot.refused != 0 {
		t.Fatalf("backlog %d failed %d refused %d, want all 0 below capacity", tot.backlog, tot.failed, tot.refused)
	}
	if late := percentile(p.lateness(), 50); late > 50 {
		t.Errorf("median send lateness %.1f µs, want about 0", late)
	}
	if err := p.valid(); err != nil {
		t.Errorf("phase below capacity judged invalid: %v", err)
	}
	p50 := p.legitPercentile(50)
	if p50 < us(service) || p50 > us(service)+300 {
		t.Errorf("median latency %.1f µs, want about the %v service time", p50, service)
	}
}

func TestGeneratorAboveCapacity(t *testing.T) {
	const (
		service  = time.Millisecond
		interval = 500 * time.Microsecond
		dur      = 400 * time.Millisecond
	)
	p, err := generate(schedule{Rate: 2000, Conns: 1, Dur: dur, Limit: time.Minute}, fakeServer(service))
	if err != nil {
		t.Fatal(err)
	}
	lat := latencies(p)
	n := len(lat)
	if n < 100 {
		t.Fatalf("only %d requests sent", n)
	}
	// Request k is sent when k earlier ones finished, so its latency from
	// due time is about service + k*(service - interval): it grows by
	// service - interval per request.
	slope := (lat[n-1] - lat[n/2]) / float64(n-1-n/2)
	if want := us(service - interval); math.Abs(slope-want) > 0.25*want {
		t.Errorf("latency grows %.1f µs per request, want about %.1f", slope, want)
	}
	// The schedule held dur/interval requests; only about dur/service fit.
	wantBacklog := float64(dur/interval - dur/service)
	if b := float64(p.totals().backlog); b < 0.75*wantBacklog || b > 1.25*wantBacklog {
		t.Errorf("backlog at end %v, want about %v", b, wantBacklog)
	}
	// Lateness counts only the generator's own delay, not the queueing.
	if late := percentile(p.lateness(), 50); late > 50 {
		t.Errorf("median send lateness %.1f µs, want about 0 when the generator keeps up", late)
	}
	// The backlog left takes about 200 ms to send, more than a 50 ms limit.
	p.Limit = 50 * time.Millisecond
	if err := p.valid(); err == nil {
		t.Error("phase ending with a growing backlog judged valid")
	}
	// With Drain the same overload sends every request the schedule holds.
	p, err = generate(schedule{Rate: 2000, Conns: 1, Dur: dur, Limit: time.Minute, Drain: true}, fakeServer(service))
	if err != nil {
		t.Fatal(err)
	}
	if tot, want := p.totals(), int(dur/interval); tot.sent != want || tot.backlog == 0 {
		t.Errorf("with Drain: sent %d with %d still due at the end, want all %d sent and a backlog", tot.sent, tot.backlog, want)
	}
}

func TestPercentileWithMisses(t *testing.T) {
	ok := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		n    int
		pct  float64
		want float64
	}{
		{4, 50, 2.5},
		{4, 100, 4},
		{5, 50, 3},
		{5, 90, inf},
		{8, 50, inf},
	} {
		if got := percentileWithMisses(ok, tc.n, tc.pct); got != tc.want {
			t.Errorf("percentileWithMisses(%v, %d, %g) = %g, want %g", ok, tc.n, tc.pct, got, tc.want)
		}
	}
}

func TestGoldenUpToDate(t *testing.T) {
	data, err := writeGolden()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(data, '\n'), goldenJSON) {
		t.Fatal("golden.json is stale: regenerate with --write-golden perfbench/golden.json")
	}
}
