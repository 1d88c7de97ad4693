package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// bench holds what every measurement of one workload shares: the request
// kinds with their golden replies and the seed-drawn schedule.
type bench struct {
	w     workload
	mode  fo.Mode
	kinds []kind
	seq   sequence
	conns int
	seed  int64
	limit time.Duration
}

func newBench(w workload, seed int64, conns int) (*bench, error) {
	mode, err := fo.ParseMode(w.Mode)
	if err != nil {
		return nil, err
	}
	s, err := srv.New(w.Server)
	if err != nil {
		return nil, err
	}
	kinds, err := loadKinds(w, s)
	if err != nil {
		return nil, err
	}
	return &bench{
		w:     w,
		mode:  mode,
		kinds: kinds,
		seq:   newSequence(w, kinds, seed),
		conns: conns,
		seed:  seed,
		limit: time.Duration(w.LimitMS * float64(time.Millisecond)),
	}, nil
}

// setupTimes is one timed set-up: compile the server's source, lower it to
// the execution IR, and build the router up to ready to accept.
type setupTimes struct {
	compile, lower, total time.Duration
}

// setup builds a router for the workload, wrapping the server for tracing
// when tr is non-nil.
func (b *bench) setup(tr *tracer) (*srv.Router, setupTimes, error) {
	var st setupTimes
	src, err := serverSource(b.w.Server)
	if err != nil {
		return nil, st, err
	}
	t0 := time.Now()
	prog, err := fo.Compile(b.w.Server+".c", src)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	prog.Compiled()
	t2 := time.Now()
	s, err := srv.New(b.w.Server)
	if err != nil {
		return nil, st, err
	}
	if tr != nil {
		s = &tracedServer{Server: s, t: tr}
	}
	shardOpts := []srv.Option{srv.WithPoolSize(b.w.PoolSize)}
	if b.w.WarmSpares > 0 {
		shardOpts = append(shardOpts, srv.WithWarmSpares(b.w.WarmSpares))
	}
	rt, err := srv.NewRouter(s, b.mode, srv.WithShards(b.w.Shards), srv.WithShardOptions(shardOpts...))
	if err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	return rt, setupTimes{compile: t1.Sub(t0), lower: t2.Sub(t1), total: t3.Sub(t0)}, nil
}

// tenants picks one tenant key per connection such that connection i
// homes on shard i mod shards.
func (b *bench) tenants(rt *srv.Router) []string {
	keys := make([]string, b.conns)
	for c := range keys {
		for j := 0; ; j++ {
			k := fmt.Sprintf("t%d-%d-%d", b.seed, c, j)
			if rt.Shard(k) == c%rt.ShardCount() {
				keys[c] = k
				break
			}
		}
	}
	return keys
}

// acct is one connection's client-side accounting for the conservation
// check, plus the spans it recorded.
type acct struct {
	submitted, answered, responses                           int
	deadline, crashed, shed, queueFull, overQuota, overLimit int
	otherErr, wrong, attacks                                 int
	mismatch                                                 string
	spans                                                    []span
	every                                                    int // record a span for every every-th request (0 = none)
}

func (a *acct) add(o acct) {
	a.submitted += o.submitted
	a.answered += o.answered
	a.responses += o.responses
	a.deadline += o.deadline
	a.crashed += o.crashed
	a.shed += o.shed
	a.queueFull += o.queueFull
	a.overQuota += o.overQuota
	a.overLimit += o.overLimit
	a.otherErr += o.otherErr
	a.wrong += o.wrong
	a.attacks += o.attacks
	if a.mismatch == "" {
		a.mismatch = o.mismatch
	}
}

func (a *acct) refused() int { return a.shed + a.queueFull + a.overQuota + a.overLimit }

// runner drives one router: it sends requests, checks replies and keeps the
// per-connection accounting of the current phase.
type runner struct {
	b        *bench
	rt       *srv.Router
	keys     []string
	checkers []*checker
	accts    []acct
}

func (r *runner) send(ctx context.Context, c, n int, due time.Time) reply {
	k := r.b.seq.at(n)
	kd := &r.b.kinds[k]
	a := &r.accts[c]
	var sp *span
	if a.every > 0 && n%a.every == 0 && len(a.spans) < cap(a.spans) {
		a.spans = append(a.spans, span{id: uint64(c)<<40 | uint64(n), kind: k, due: due})
		sp = &a.spans[len(a.spans)-1]
		ctx = context.WithValue(ctx, spanKey{}, sp)
		sp.submitStart = time.Now()
	}
	a.submitted++
	if kd.attack {
		a.attacks++
	}
	resp, err := r.rt.Submit(ctx, r.keys[c], kd.req)
	done := time.Now()
	a.answered++
	out := r.classify(c, k, resp, err)
	if sp != nil {
		sp.submitEnd, sp.out, sp.memErrors = done, out, resp.MemErrors.Total()
		sp.replyEnd = time.Now()
	}
	return reply{legit: !kd.attack, out: out, done: done}
}

func (r *runner) classify(c, k int, resp srv.Response, err error) outcome {
	a := &r.accts[c]
	if err != nil {
		switch {
		case errors.Is(err, srv.ErrShed):
			a.shed++
		case errors.Is(err, srv.ErrQueueFull):
			a.queueFull++
		case errors.Is(err, srv.ErrOverQuota):
			a.overQuota++
		case errors.Is(err, srv.ErrOverLimit):
			a.overLimit++
		default:
			a.otherErr++
			a.wrong++
			if a.mismatch == "" {
				a.mismatch = fmt.Sprintf("%s: submit: %v", r.b.kinds[k].name, err)
			}
			return outFailed
		}
		return outRefused
	}
	a.responses++
	if resp.Outcome == fo.OutcomeDeadline {
		a.deadline++
		return outFailed
	}
	if resp.Crashed() {
		a.crashed++
	}
	if msg := r.checkers[c].check(k, resp); msg != "" {
		a.wrong++
		if a.mismatch == "" {
			a.mismatch = msg
		}
		return outFailed
	}
	return outOK
}

// chunk is one open-loop phase with the client's tally and the process
// and router counters that moved during it.
type chunk struct {
	phaseStats
	acct  acct
	delta counters
}

// phase runs one open-loop phase on fresh instances, every request with
// the deadline due + limit, and checks conservation against the router's
// counters. With drain it sends every request its schedule holds (see
// schedule.Drain). spanCap > 0 records up to spanCap spans per connection,
// spread evenly over the phase.
func (r *runner) phase(rate float64, dur, limit time.Duration, drain bool, spanCap int) (chunk, error) {
	for c := range r.accts {
		r.accts[c] = acct{}
		if spanCap > 0 {
			expect := int(rate*dur.Seconds()/float64(r.b.conns)) + 1
			r.accts[c].every = (expect + spanCap - 1) / spanCap
			r.accts[c].spans = make([]span, 0, spanCap+1)
		}
	}
	if err := r.fresh(); err != nil {
		return chunk{}, err
	}
	before := r.rt.Stats()
	c0 := readCounters(before)
	ps, err := generate(schedule{Rate: rate, Conns: r.b.conns, Dur: dur, Limit: limit, Drain: drain}, r.send)
	if err != nil {
		return chunk{}, err
	}
	ch := chunk{phaseStats: ps}
	for _, a := range r.accts {
		ch.acct.add(a)
	}
	if ch.acct.wrong > 0 {
		return ch, fmt.Errorf("%d wrong replies at %.0f req/s; first: %s", ch.acct.wrong, rate, ch.acct.mismatch)
	}
	after, err := r.reconcile(before, ch.acct)
	if err != nil {
		return ch, err
	}
	ch.delta = readCounters(after).minus(c0)
	return ch, nil
}

// fresh moves the fleet onto fresh instances of the same server (a hot
// swap) and sends each connection one unmeasured, checked cycle of its mix,
// so every phase starts on newly spawned, warmed-up instances. Server
// requests copy their arguments into the instance's simulated heap and
// never free them; without this the heap a phase starts with would depend
// on how much the phases before it sent.
func (r *runner) fresh() error {
	r.rt.Swap(r.rt.Current())
	crashes := r.rt.Stats().Crashes
	for c := range r.keys {
		for n := range r.b.w.Mix {
			k := r.b.seq.at(n)
			resp, err := r.rt.Submit(context.Background(), r.keys[c], r.b.kinds[k].req)
			if err != nil {
				return fmt.Errorf("priming %s: %w", r.b.kinds[k].name, err)
			}
			if msg := r.checkers[c].check(k, resp); msg != "" {
				return fmt.Errorf("priming: %s", msg)
			}
			if resp.Crashed() {
				crashes++
			}
		}
	}
	// A worker counts a crash just after replying; wait for the count so
	// it does not spill into the phase's counter deltas.
	for deadline := time.Now().Add(time.Second); r.rt.Stats().Crashes < crashes; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("priming: crash count stuck below %d", crashes)
		}
	}
	return nil
}

// reconcile checks that every submission was answered exactly once and
// that the client's tally matches the router's counter deltas, and returns
// the router's counters once they do. Counters a worker bumps after
// replying (a crash) may trail the last reply briefly, so it polls for up
// to a second before declaring an imbalance.
func (r *runner) reconcile(before srv.RouterStats, a acct) (srv.RouterStats, error) {
	if a.submitted != a.answered || a.answered != a.responses+a.refused()+a.otherErr {
		return before, fmt.Errorf("conservation: %d submitted, %d answered, %d responses + %d refused + %d errors",
			a.submitted, a.answered, a.responses, a.refused(), a.otherErr)
	}
	var msg string
	for deadline := time.Now().Add(time.Second); ; {
		after := r.rt.Stats()
		d := func(x, y uint64) int { return int(y - x) }
		served, timeouts := d(before.Served, after.Served), d(before.Timeouts, after.Timeouts)
		switch {
		case d(before.Shed, after.Shed) != a.shed:
			msg = fmt.Sprintf("shed: client %d, router %d", a.shed, d(before.Shed, after.Shed))
		case d(before.Rejected, after.Rejected) != a.queueFull:
			msg = fmt.Sprintf("queue full: client %d, router %d", a.queueFull, d(before.Rejected, after.Rejected))
		case d(before.OverQuota, after.OverQuota) != a.overQuota:
			msg = fmt.Sprintf("over quota: client %d, router %d", a.overQuota, d(before.OverQuota, after.OverQuota))
		case d(before.OverLimit, after.OverLimit) != a.overLimit:
			msg = fmt.Sprintf("over limit: client %d, router %d", a.overLimit, d(before.OverLimit, after.OverLimit))
		case timeouts != a.deadline:
			msg = fmt.Sprintf("deadline: client %d, router %d", a.deadline, timeouts)
		case d(before.Crashes, after.Crashes) != a.crashed:
			msg = fmt.Sprintf("crashes: client %d, router %d", a.crashed, d(before.Crashes, after.Crashes))
		case a.responses < served || a.responses > served+timeouts:
			msg = fmt.Sprintf("responses: client %d, router served %d + expired in queue ≤ %d", a.responses, served, timeouts)
		default:
			return after, nil
		}
		if time.Now().After(deadline) {
			return after, fmt.Errorf("conservation: %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// monitor samples the Go heap every 10 ms and scrapes Router.Metrics every
// 100 ms, as an operator's collector would, timing each scrape.
type monitor struct {
	stop, done chan struct{}
	peak       uint64
	scrapes    []float64 // µs
}

func startMonitor(rt *srv.Router) *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > m.peak {
				m.peak = v
			}
			if i%10 == 0 {
				t0 := time.Now()
				_ = rt.Metrics()
				m.scrapes = append(m.scrapes, float64(time.Since(t0))/float64(time.Microsecond))
			}
		}
	}()
	return m
}

// finish stops the monitor and waits for it to exit.
func (m *monitor) finish() {
	close(m.stop)
	<-m.done
}

// counters are the process, Go runtime and router counters a phase moves.
type counters struct {
	cpu             time.Duration // process user + system CPU
	allocs          uint64
	gcCPU, totalCPU float64 // seconds
	restarts        uint64
	breakerTrips    uint64
	timeouts        uint64
	refused         uint64 // shed + queue full + over quota + over limit
}

// readCounters reads the process and Go runtime counters now and takes the
// router's from st.
func readCounters(st srv.RouterStats) counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return counters{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:       s[0].Value.Uint64(),
		gcCPU:        s[1].Value.Float64(),
		totalCPU:     s[2].Value.Float64(),
		restarts:     st.Restarts,
		breakerTrips: st.BreakerTrips,
		timeouts:     st.Timeouts,
		refused:      st.Shed + st.Rejected + st.OverQuota + st.OverLimit,
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		cpu:          c.cpu - o.cpu,
		allocs:       c.allocs - o.allocs,
		gcCPU:        c.gcCPU - o.gcCPU,
		totalCPU:     c.totalCPU - o.totalCPU,
		restarts:     c.restarts - o.restarts,
		breakerTrips: c.breakerTrips - o.breakerTrips,
		timeouts:     c.timeouts - o.timeouts,
		refused:      c.refused - o.refused,
	}
}

func (c *counters) add(o counters) {
	c.cpu += o.cpu
	c.allocs += o.allocs
	c.gcCPU += o.gcCPU
	c.totalCPU += o.totalCPU
	c.restarts += o.restarts
	c.breakerTrips += o.breakerTrips
	c.timeouts += o.timeouts
	c.refused += o.refused
}

// measurement is everything one run of the phases produced.
type measurement struct {
	traced       bool
	setups       []setupTimes
	light, heavy measured
	probes       []probe
	maxRate      float64
	heapPeak     uint64
	scrapes      []float64
	spawns       []time.Duration
	heavySpans   []span
	refs         []time.Duration // refWork times, see hostScale
}

// measured is the light or heavy load of one measurement: its accepted
// chunks pooled into one phase, with their counter deltas summed.
type measured struct {
	phaseStats // every chunk's connections; Dur is the chunks' total
	acct       acct
	delta      counters
	retakes    int // chunks run again because they were invalid
}

func (m *measured) add(c chunk) {
	dur := m.Dur + c.Dur
	m.schedule = c.schedule
	m.Dur = dur
	m.conns = append(m.conns, c.conns...)
	m.acct.add(c.acct)
	m.delta.add(c.delta)
}

// maxRetakes is how many times a light or heavy chunk is run again when
// it is invalid (see phaseStats.valid) before the run fails. A stall of the
// shared host can hold the generator's connection off its CPU for
// milliseconds; a retake measures the server again instead of charging the
// generator's lag to it.
const maxRetakes = 2

// measuredChunk runs one light or heavy chunk and adds it to m.
func (r *runner) measuredChunk(m *measured, rate float64, dur time.Duration, spanCap int) error {
	for tries := 0; ; tries++ {
		c, err := r.phase(rate, dur, r.b.limit, true, spanCap)
		if err != nil {
			return err
		}
		if err := c.valid(); err != nil {
			if tries == maxRetakes {
				return err
			}
			m.retakes++
			continue
		}
		m.add(c)
		return nil
	}
}

// probe is one max-rate probe at saturation.
type probe struct {
	rate float64 // requests answered per second
	sent int
}

// Shares of a measurement's time budget, and how it is split.
const (
	warmShare  = 0.05
	lightShare = 0.25
	heavyShare = 0.3
	probeShare = 0.4
	rounds     = 8     // light, heavy and probe chunks, one each per round
	setupRuns  = 100   // timed set-ups per measurement
	spanCap    = 40000 // spans per connection over all heavy chunks
)

// measure times setupRuns set-ups, then runs a warm-up and `rounds` rounds
// of one light chunk, one heavy chunk and one max-rate probe within
// budget, on one more router, built first and untimed. Interleaving the
// chunks spreads the light load, the heavy load and the probes over the
// whole run, so a slow spell of the shared host weighs on each of them
// alike instead of on whichever phase it hit; the set-ups are timed in
// equal batches before each round and after the last for the same reason.
// Every chunk starts on fresh instances, so none inherits the simulated
// heap an earlier one grew. The heap monitor runs only during the chunks,
// so set-up garbage does not count in the heap peak.
func (b *bench) measure(budget time.Duration, traced bool) (*measurement, error) {
	m := &measurement{traced: traced}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	rt, _, err := b.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer rt.Close()
	r := &runner{b: b, rt: rt, keys: b.tenants(rt), accts: make([]acct, b.conns)}
	for c := 0; c < b.conns; c++ {
		r.checkers = append(r.checkers, newChecker(b.kinds))
	}
	sec := func(share float64) time.Duration { return time.Duration(share * float64(budget)) }
	capSpans := 0
	if traced {
		capSpans = spanCap / rounds
	}
	monitored := func(name string, run func() error) error {
		mon := startMonitor(rt)
		err := run()
		mon.finish()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.heapPeak = max(m.heapPeak, mon.peak)
		m.scrapes = append(m.scrapes, mon.scrapes...)
		return nil
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"light", func() error {
			return r.measuredChunk(&m.light, b.w.LightRPS, sec(lightShare/rounds), 0)
		}},
		{"heavy", func() error {
			err := r.measuredChunk(&m.heavy, b.w.HeavyRPS, sec(heavyShare/rounds), capSpans)
			for _, a := range r.accts {
				m.heavySpans = append(m.heavySpans, a.spans...)
			}
			return err
		}},
		{"max-rate probe", func() error {
			p, err := b.probe(r, sec(probeShare/rounds))
			m.probes = append(m.probes, p)
			return err
		}},
	}
	if err := monitored("warm-up", func() error {
		_, err := r.phase(b.w.LightRPS, sec(warmShare), b.limit, true, 0)
		return err
	}); err != nil {
		return nil, err
	}
	for range rounds {
		if err := b.timeSetups(m, tr, setupRuns/(rounds+1)); err != nil {
			return nil, err
		}
		for _, st := range steps {
			if err := monitored(st.name, st.run); err != nil {
				return nil, err
			}
		}
	}
	if err := b.timeSetups(m, tr, setupRuns-len(m.setups)); err != nil {
		return nil, err
	}
	var rates []float64
	for _, p := range m.probes {
		rates = append(rates, p.rate)
	}
	m.maxRate = median(rates)
	if tr != nil {
		m.spawns = tr.spawnTimes()
	}
	return m, nil
}

// timeSetups times n set-ups, closing each router, then collects their
// garbage so the next phase starts from the live heap, and times refWork
// refSamples times on the quiet process.
func (b *bench) timeSetups(m *measurement, tr *tracer, n int) error {
	for range n {
		rt, st, err := b.setup(tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rt.Close()
		m.setups = append(m.setups, st)
	}
	runtime.GC()
	for range refSamples {
		m.refs = append(m.refs, refWork())
	}
	return nil
}

// probe runs one max-rate probe: it offers the workload's saturating rate,
// above anything the server can serve, with a deadline no request reaches
// within the probe, and reports the rate at which the server answered.
// Since a connection never has more than one request outstanding, an
// overloaded connection sends each request as soon as the previous one is
// answered, so that rate is the highest the server sustains: any offered
// rate above it leaves a backlog that grows without bound, and so a tail
// that exceeds any limit.
func (b *bench) probe(r *runner, dur time.Duration) (probe, error) {
	c, err := r.phase(b.w.SaturateRPS, dur, 2*dur, false, 0)
	if err != nil {
		return probe{}, err
	}
	t := c.totals()
	if t.failed+t.refused > 0 {
		return probe{}, fmt.Errorf("%d of %d requests failed or were refused at saturation", t.failed+t.refused, t.sent)
	}
	if t.backlog == 0 {
		return probe{}, fmt.Errorf("%.0f req/s did not saturate the server: raise saturate_rps", b.w.SaturateRPS)
	}
	return probe{rate: float64(t.ok) / c.Dur.Seconds(), sent: t.sent}, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
