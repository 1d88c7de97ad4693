package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// outcome classifies one reply as the client sees it.
type outcome uint8

const (
	outOK      outcome = iota // answered correctly within the limit
	outFailed                 // wrong, deadline-exceeded, or later than the limit
	outRefused                // rejected by admission (shed, queue full, quota, limit)
)

// reply is what a send function reports back to the generator.
type reply struct {
	legit bool      // counts toward latency and failure metrics
	out   outcome   // classification before the limit check
	done  time.Time // when the serving surface returned
}

// sendFunc submits request n of connection c, due at due, under ctx (which
// carries the deadline due + limit) and blocks until it is answered.
type sendFunc func(ctx context.Context, c, n int, due time.Time) reply

// schedule is one open-loop phase: Rate requests per second in total,
// split evenly over Conns connections, for Dur. With Drain, requests still
// due when the phase ends are sent all the same, so a phase always sends
// exactly the requests its schedule holds.
type schedule struct {
	Rate  float64
	Conns int
	Dur   time.Duration
	Limit time.Duration
	Drain bool
}

// connStats is one connection's record of a phase. Latencies are in
// microseconds from the due time; lateness is the generator's own send
// delay (see record).
type connStats struct {
	legitLat  []float32 // every legit request in send order, +Inf when it failed
	late      []float32 // generator send delay of every request sent
	sent      int
	ok        int
	failed    int
	refused   int
	legitSent int
	legitOK   int
	backlog   int           // requests due before the end but not sent by then
	worst     time.Duration // latency of the slowest reply, any kind
	spinCPU   time.Duration // thread CPU spent busy-waiting for due times
	err       error         // the sleeper failed
}

// phaseStats merges the connections of one phase.
type phaseStats struct {
	schedule
	conns []connStats
}

// generate runs one open-loop phase: each connection is one goroutine that
// sends request n at start + (n + c/Conns) × interval, or immediately when
// it is already late, and never has more than one request outstanding. A
// stall therefore delays every later request of the connection, and each
// request's latency is charged from its due time. Requests still due when
// the phase ends are counted as backlog, and sent only with Drain.
func generate(s schedule, send sendFunc) (phaseStats, error) {
	interval := time.Duration(float64(time.Second) * float64(s.Conns) / s.Rate)
	expect := int(s.Rate*s.Dur.Seconds()/float64(s.Conns)) + 16
	stats := make([]connStats, s.Conns)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(s.Dur)
	sleepers := make([]*sleeper, s.Conns)
	for c := range sleepers {
		sl, err := newSleeper()
		if err != nil {
			for _, open := range sleepers[:c] {
				open.close()
			}
			return phaseStats{}, err
		}
		sleepers[c] = sl
	}
	var wg sync.WaitGroup
	for c := range stats {
		st, sl := &stats[c], sleepers[c]
		st.legitLat = make([]float32, 0, expect)
		st.late = make([]float32, 0, expect)
		offset := time.Duration(float64(c) / float64(s.Conns) * float64(interval))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer sl.close()
			base := context.Background()
			var free time.Time // when the previous reply arrived
			behind := false    // the phase ended with requests still due
			for n := 0; ; n++ {
				due := start.Add(offset + time.Duration(n)*interval)
				if !due.Before(end) {
					return
				}
				now, err := st.waitUntil(sl, due)
				if err != nil {
					st.err = err
					return
				}
				if !now.Before(end) && !behind {
					behind = true
					first := start.Add(offset)
					st.backlog = int((end.Sub(first)+interval-1)/interval) - n
					if !s.Drain {
						return
					}
				}
				ctx, cancel := context.WithDeadline(base, due.Add(s.Limit))
				r := send(ctx, c, n, due)
				cancel()
				st.record(r, due, now, free, s.Limit)
				free = r.done
			}
		}(c)
	}
	wg.Wait()
	for _, st := range stats {
		if st.err != nil {
			return phaseStats{}, st.err
		}
	}
	return phaseStats{schedule: s, conns: stats}, nil
}

// record counts one reply. Lateness is the generator's own delay: from
// when the request could first be sent (its due time, or the previous
// reply if that came later) to when it was sent.
func (st *connStats) record(r reply, due, sent, free time.Time, limit time.Duration) {
	st.sent++
	if free.Before(due) {
		free = due
	}
	st.late = append(st.late, micros(sent.Sub(free)))
	lat := r.done.Sub(due)
	st.worst = max(st.worst, lat)
	out := r.out
	if out == outOK && lat > limit {
		out = outFailed
	}
	switch out {
	case outOK:
		st.ok++
	case outFailed:
		st.failed++
	case outRefused:
		st.refused++
	}
	if r.legit {
		st.legitSent++
		v := float32(inf)
		if out == outOK {
			st.legitOK++
			v = micros(lat)
		}
		st.legitLat = append(st.legitLat, v)
	}
}

// spinBelow is how close to a due time the generator stops sleeping and
// busy-waits, covering the sleeper's wake-up slack.
const spinBelow = 100 * time.Microsecond

// waitUntil blocks until due and returns the send time. Long waits sleep;
// the last stretch is a busy-wait, whose CPU time is recorded so CPU
// figures can leave it out. It does not yield: a yield can hand the P to a
// GC mark worker that keeps it for milliseconds. The goroutine stays on its
// thread while spinning, so the thread's CPU clock covers exactly the spin,
// and time the OS deschedules the thread is not counted.
func (st *connStats) waitUntil(sl *sleeper, due time.Time) (time.Time, error) {
	now := time.Now()
	if d := due.Sub(now) - spinBelow; d > 0 {
		if err := sl.sleep(d); err != nil {
			return now, err
		}
		now = time.Now()
	}
	if !now.Before(due) {
		return now, nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	for now.Before(due) {
		now = time.Now()
	}
	st.spinCPU += threadCPU() - c0
	return now, nil
}

var inf = math.Inf(1)

func micros(d time.Duration) float32 { return float32(float64(d) / float64(time.Microsecond)) }

// totals sums the per-connection counters.
func (p phaseStats) totals() (t connStats) {
	for _, c := range p.conns {
		t.sent += c.sent
		t.ok += c.ok
		t.failed += c.failed
		t.refused += c.refused
		t.legitSent += c.legitSent
		t.legitOK += c.legitOK
		t.backlog += c.backlog
		t.worst = max(t.worst, c.worst)
		t.spinCPU += c.spinCPU
	}
	return t
}

// lateness returns the sorted send lateness of every request (µs).
func (p phaseStats) lateness() []float64 {
	var xs []float64
	for _, c := range p.conns {
		for _, v := range c.late {
			xs = append(xs, float64(v))
		}
	}
	sort.Float64s(xs)
	return xs
}

// legitPercentile is the pct-th percentile of legit latency in µs over the
// whole phase, with every failed or refused legit request counted as
// slower than any reply (+Inf), as a client with a latency limit sees it.
func (p phaseStats) legitPercentile(pct float64) float64 {
	var ok []float64
	total := 0
	for _, c := range p.conns {
		total += len(c.legitLat)
		for _, v := range c.legitLat {
			if !math.IsInf(float64(v), 1) {
				ok = append(ok, float64(v))
			}
		}
	}
	sort.Float64s(ok)
	return percentileWithMisses(ok, total, pct)
}

// backlogged is how long the requests still due at the end of the phase
// would take to send on the schedule.
func (p phaseStats) backlogged() time.Duration {
	interval := time.Duration(float64(time.Second) * float64(p.Conns) / p.Rate)
	return time.Duration(p.totals().backlog/p.Conns) * interval
}

// valid fails a measured phase whose latencies cannot be trusted: the
// generator itself sent late (send lateness p99 above half the limit, so
// latency from due time would charge its lag to the server), or the phase
// ended with more requests still due than the limit leaves time for.
func (p phaseStats) valid() error {
	if late := percentile(p.lateness(), 99); late > us(p.Limit/2) {
		return fmt.Errorf("run invalid: generator send lateness p99 %.3f ms is above half the %v limit", ms(late), p.Limit)
	}
	if b := p.backlogged(); b > p.Limit {
		return fmt.Errorf("run invalid: %d requests still due at the end (%v of sends) exceed the %v limit", p.totals().backlog, b, p.Limit)
	}
	return nil
}

// percentileWithMisses is the pct-th percentile, by linear interpolation,
// of n samples: the sorted ok ones plus n-len(ok) that count as +Inf.
func percentileWithMisses(ok []float64, n int, pct float64) float64 {
	if n == 0 {
		return inf
	}
	at := func(i int) float64 {
		if i < len(ok) {
			return ok[i]
		}
		return inf
	}
	rank := pct / 100 * float64(n-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 {
		return at(lo)
	}
	a, b := at(lo), at(lo+1)
	if math.IsInf(b, 1) {
		return inf
	}
	return a + frac*(b-a)
}

// percentile is the pct-th percentile of sorted xs by linear interpolation.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentileWithMisses(xs, len(xs), pct)
}
