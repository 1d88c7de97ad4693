package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/serve"
	"focc/internal/servers"
	"focc/internal/servers/apache"
)

// stubSrc is a minimal server program with one handler per behaviour the
// engine must supervise: a fast success, an infinite loop (deadline
// testing), and an unconditional stack smash (crash-loop testing).
const stubSrc = `
char resp[32];

int ok(void)
{
	resp[0] = 'o'; resp[1] = 'k'; resp[2] = 0;
	return 200;
}

int spin(void)
{
	int i = 0;
	for (;;)
		i++;
	return i;
}

int smash(void)
{
	char buf[4];
	int i;
	for (i = 0; i < 200; i++)
		buf[i] = 'x';
	return 0;
}
`

var (
	stubOnce sync.Once
	stubProg *fo.Program
	stubErr  error
)

type stubServer struct{}

func (*stubServer) Name() string { return "stub" }

func (*stubServer) New(mode fo.Mode) (servers.Instance, error) {
	stubOnce.Do(func() { stubProg, stubErr = fo.Compile("stub.c", stubSrc) })
	if stubErr != nil {
		return nil, stubErr
	}
	log := fo.NewEventLog(0)
	m, err := stubProg.NewMachine(fo.MachineConfig{Mode: mode, Log: log})
	if err != nil {
		return nil, err
	}
	return &stubInstance{Base: servers.Base{ServerName: "stub", M: m, EvLog: log}}, nil
}

func (*stubServer) LegitRequests() []servers.Request {
	return []servers.Request{{Op: "ok"}}
}

func (*stubServer) AttackRequest() servers.Request {
	return servers.Request{Op: "smash"}
}

type stubInstance struct {
	servers.Base
}

func (i *stubInstance) Handle(req servers.Request) servers.Response {
	res := i.M.Call(req.Op)
	if res.Outcome != fo.OutcomeOK {
		return servers.Response{Outcome: res.Outcome, Err: res.Err}
	}
	return servers.Response{Outcome: fo.OutcomeOK, Status: int(res.Value.I), Body: "ok"}
}

func (i *stubInstance) HandleContext(ctx context.Context, req servers.Request) servers.Response {
	defer i.BindContext(ctx)()
	return i.Handle(req)
}

// A rewound request is a survivable failure, not a crash: the worker keeps
// its instance (no restart), the request releases its slot and feeds the
// served/latency accounting, and the dedicated Rewound counter ticks.
func TestEngineRewoundRequest(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.ModeRewind,
		serve.WithPoolSize(1), serve.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if resp, err := eng.Submit(nil, servers.Request{Op: "ok"}); err != nil || resp.Outcome != fo.OutcomeOK {
		t.Fatalf("ok = %v outcome %v, want OK", err, resp.Outcome)
	}
	resp, err := eng.Submit(nil, servers.Request{Op: "smash"})
	if err != nil {
		t.Fatalf("smash: %v", err)
	}
	if resp.Outcome != fo.OutcomeRewound {
		t.Fatalf("smash outcome = %v, want rewound", resp.Outcome)
	}
	// The same single worker instance keeps serving.
	if resp, err := eng.Submit(nil, servers.Request{Op: "ok"}); err != nil || resp.Outcome != fo.OutcomeOK {
		t.Fatalf("ok after rewind = %v outcome %v, want OK", err, resp.Outcome)
	}

	st := eng.Stats()
	if st.Served != 3 {
		t.Errorf("Served = %d, want 3 (rewound requests count as served)", st.Served)
	}
	if st.Rewound != 1 {
		t.Errorf("Rewound = %d, want 1", st.Rewound)
	}
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Errorf("Crashes/Restarts = %d/%d, want 0/0 — rewind must not trigger the supervisor", st.Crashes, st.Restarts)
	}
	if lat := eng.Metrics().Latency; lat.Count != 3 {
		t.Errorf("latency count = %d, want 3 (rewound request recorded)", lat.Count)
	}
}

// TestConcurrentMixedLoad drives a mixed legit/attack workload from 8
// concurrent clients through pools in all three paper modes (run with
// -race). Legitimate requests must always be answered by a live instance —
// the supervisor replaces crashed children between requests — and only the
// failure-oblivious pool must do it without any restarts.
func TestConcurrentMixedLoad(t *testing.T) {
	srv := apache.NewServer()
	const clients = 8
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, err := serve.New(srv, mode,
				serve.WithPoolSize(4), serve.WithQueueDepth(4*clients))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			legit := srv.LegitRequests()[0]
			attack := srv.AttackRequest()
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						for a := 0; a < 2; a++ {
							if _, err := eng.Submit(nil, attack); err != nil &&
								!errors.Is(err, serve.ErrQueueFull) {
								errc <- err
								return
							}
						}
						for {
							resp, err := eng.Submit(nil, legit)
							if errors.Is(err, serve.ErrQueueFull) {
								time.Sleep(100 * time.Microsecond)
								continue
							}
							if err != nil {
								errc <- err
								return
							}
							if !resp.OK() {
								errc <- errors.New("legit request not OK: " + resp.String())
								return
							}
							break
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			st := eng.Stats()
			if mode == fo.FailureOblivious {
				if st.Crashes != 0 || st.Restarts != 0 {
					t.Errorf("failure-oblivious pool crashed %d / restarted %d, want 0",
						st.Crashes, st.Restarts)
				}
			} else if st.Crashes == 0 {
				t.Errorf("%v pool saw no crashes under attack", mode)
			}
		})
	}
}

// TestStatsScrapeUnderLoad serves a mixed legit/attack workload in all
// three paper modes while two scraper goroutines continuously read
// Engine.Stats and Engine.Metrics (run with -race — before EventLog was
// mutex-guarded this scrape was a data race by construction). It then
// checks the aggregated memory-error telemetry per mode, the per-request
// attribution on responses, and the live latency histogram.
func TestStatsScrapeUnderLoad(t *testing.T) {
	srv := apache.NewServer()
	const clients = 4
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious} {
		t.Run(mode.String(), func(t *testing.T) {
			eng, err := serve.New(srv, mode,
				serve.WithPoolSize(2), serve.WithQueueDepth(4*clients))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			legit := srv.LegitRequests()[0]
			attack := srv.AttackRequest()

			stop := make(chan struct{})
			var scrapers sync.WaitGroup
			for s := 0; s < 2; s++ {
				scrapers.Add(1)
				go func() {
					defer scrapers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						st := eng.Stats()
						_ = st.MemErrors.Total()
						m := eng.Metrics()
						_ = m.Latency.P99
					}
				}()
			}

			var attackErrors uint64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						resp, err := eng.Submit(nil, attack)
						if err == nil {
							mu.Lock()
							attackErrors += resp.MemErrors.Total()
							mu.Unlock()
						}
						for {
							if _, err := eng.Submit(nil, legit); !errors.Is(err, serve.ErrQueueFull) {
								break
							}
							time.Sleep(100 * time.Microsecond)
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			scrapers.Wait()

			st := eng.Stats()
			m := eng.Metrics()
			switch mode {
			case fo.Standard:
				// No checking code: nothing is ever logged.
				if st.MemErrors.Total() != 0 {
					t.Errorf("standard pool logged %d events, want 0", st.MemErrors.Total())
				}
			case fo.BoundsCheck:
				if st.MemErrors.Denied == 0 {
					t.Errorf("bounds-check pool denied %d accesses, want >0", st.MemErrors.Denied)
				}
			case fo.FailureOblivious:
				if st.MemErrors.InvalidWrites == 0 {
					t.Errorf("failure-oblivious pool discarded %d writes, want >0",
						st.MemErrors.InvalidWrites)
				}
				if st.MemErrors.Denied != 0 {
					t.Errorf("failure-oblivious pool denied %d accesses, want 0",
						st.MemErrors.Denied)
				}
				if attackErrors == 0 {
					t.Error("attack responses carried no per-request attribution")
				}
			}
			if m.Latency.Count != st.Served {
				t.Errorf("latency count = %d, served = %d", m.Latency.Count, st.Served)
			}
			if m.Latency.Count > 0 &&
				(m.Latency.P50 > m.Latency.P95 || m.Latency.P95 > m.Latency.P99) {
				t.Errorf("latency percentiles not monotone: %v %v %v",
					m.Latency.P50, m.Latency.P95, m.Latency.P99)
			}
		})
	}
}

// TestCrashedInstanceCountsSurvive verifies the engine folds a dead
// instance's log into the aggregate when the supervisor replaces it: after
// crash-and-restart, the events the fatal request logged are still visible
// in Stats.
func TestCrashedInstanceCountsSurvive(t *testing.T) {
	srv := apache.NewServer()
	eng, err := serve.New(srv, fo.BoundsCheck,
		serve.WithPoolSize(1), serve.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	resp, err := eng.Submit(nil, srv.AttackRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Crashed() {
		t.Fatalf("bounds-check attack did not crash the instance: %v", resp.Outcome)
	}
	// Serve a legit request so the replacement instance is live, then
	// check the dead instance's denial is still counted.
	if _, err := eng.Submit(nil, srv.LegitRequests()[0]); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Restarts == 0 {
		t.Fatal("no restart after crash")
	}
	if st.MemErrors.Denied == 0 {
		t.Error("denied count from the crashed instance was lost on restart")
	}
}

// TestDeadlineExpiry submits a request that loops forever under a short
// deadline: the response must carry OutcomeDeadline, the instance must
// survive (no restart), and the same worker must serve a subsequent
// legitimate request.
func TestDeadlineExpiry(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(4),
		serve.WithDeadline(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	resp, err := eng.Submit(nil, servers.Request{Op: "spin"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != fo.OutcomeDeadline {
		t.Fatalf("spin outcome = %v, want deadline-exceeded", resp.Outcome)
	}
	if resp.Crashed() {
		t.Error("deadline outcome must not count as a crash")
	}
	resp, err = eng.Submit(nil, servers.Request{Op: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK() || resp.Status != 200 {
		t.Fatalf("post-deadline request = %v, want 200 OK", resp)
	}
	st := eng.Stats()
	if st.Timeouts == 0 {
		t.Error("timeout not counted")
	}
	if st.Restarts != 0 || st.Crashes != 0 {
		t.Errorf("deadline killed the instance: crashes=%d restarts=%d",
			st.Crashes, st.Restarts)
	}
}

// TestQueueFullRejection fills the single worker and the one-slot queue
// with slow requests; further submissions must be rejected immediately with
// ErrQueueFull (backpressure, not unbounded queuing). Once the per-request
// deadline expires the slow requests, their queue slots must be released:
// a fresh submission is admitted and served.
func TestQueueFullRejection(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(1),
		serve.WithDeadline(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	slow := make(chan servers.Response, 2)
	wg.Add(1)
	go func() { // occupies the worker until its deadline fires
		defer wg.Done()
		if resp, err := eng.Submit(nil, servers.Request{Op: "spin"}); err == nil {
			slow <- resp
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the worker pick the task up
	wg.Add(1)
	go func() { // fills the queue's single slot
		defer wg.Done()
		if resp, err := eng.Submit(nil, servers.Request{Op: "spin"}); err == nil {
			slow <- resp
		}
	}()
	time.Sleep(20 * time.Millisecond)
	rejected := 0
	for i := 0; i < 5; i++ {
		if _, err := eng.Submit(nil, servers.Request{Op: "ok"}); errors.Is(err, serve.ErrQueueFull) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no submissions rejected while queue was full")
	}
	if eng.Stats().Rejected == 0 {
		t.Error("rejections not counted")
	}

	// Both slow requests run out their deadline — one canceled mid-
	// execution, one expired while queued — freeing the worker and the
	// queue slot without killing anything.
	wg.Wait()
	close(slow)
	for resp := range slow {
		if resp.Outcome != fo.OutcomeDeadline {
			t.Errorf("slow request outcome = %v, want deadline-exceeded", resp.Outcome)
		}
	}
	resp, err := eng.Submit(nil, servers.Request{Op: "ok"})
	if err != nil {
		t.Fatalf("post-expiry submit not admitted: %v", err)
	}
	if !resp.OK() || resp.Status != 200 {
		t.Fatalf("post-expiry request = %v, want 200 OK", resp)
	}
	st := eng.Stats()
	if st.Timeouts < 2 {
		t.Errorf("timeouts = %d, want >= 2", st.Timeouts)
	}
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Errorf("deadline expiry killed the instance: crashes=%d restarts=%d",
			st.Crashes, st.Restarts)
	}
}

// TestChaosKillAndDelayCounters drives a single-worker engine with
// deterministic chaos injection: every 3rd request kills the instance and
// every 4th delays it. The counters must match the cadences exactly, every
// request must still be answered OK (the response is delivered before the
// kill), and chaos kills must show up as restarts — not crashes.
func TestChaosKillAndDelayCounters(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(4),
		serve.WithChaos(serve.ChaosConfig{
			KillEvery:    3,
			LatencyEvery: 4,
			Latency:      time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 12
	for i := 0; i < n; i++ {
		resp, err := eng.Submit(nil, servers.Request{Op: "ok"})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !resp.OK() || resp.Status != 200 {
			t.Fatalf("request %d = %v, want 200 OK", i, resp)
		}
	}
	// The worker replies before it kills and respawns, so the last kill's
	// restart may still be in flight: Close joins the worker first.
	eng.Close()
	st := eng.Stats()
	if want := uint64(n / 3); st.ChaosKills != want {
		t.Errorf("chaos kills = %d, want %d", st.ChaosKills, want)
	}
	if want := uint64(n / 4); st.ChaosDelays != want {
		t.Errorf("chaos delays = %d, want %d", st.ChaosDelays, want)
	}
	if st.Restarts != st.ChaosKills {
		t.Errorf("restarts = %d, want %d (one per chaos kill)", st.Restarts, st.ChaosKills)
	}
	if st.Crashes != 0 {
		t.Errorf("chaos kills counted as crashes: %d", st.Crashes)
	}
	if st.Served != n {
		t.Errorf("served = %d, want %d", st.Served, n)
	}
}

// TestChaosKillsDoNotBackOff kills the instance after every request with
// no warm spares and an hour-long backoff base: chaos kills respawn
// immediately however many follow each other, so every request is
// answered. A respawn that slept would leave the next request unanswered.
func TestChaosKillsDoNotBackOff(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithBreaker(0, 0),
		serve.WithBackoff(time.Hour, time.Hour),
		serve.WithChaos(serve.ChaosConfig{KillEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 8
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			resp, err := eng.Submit(context.Background(), servers.Request{Op: "ok"})
			if err == nil && !resp.OK() {
				err = fmt.Errorf("request %d = %v, want OK", i, resp)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("requests unanswered 10 s in: a chaos-kill respawn slept")
	}
	eng.Close() // joins the worker, so the last kill is counted
	if st := eng.Stats(); st.ChaosKills < n-1 || st.Crashes != 0 {
		t.Errorf("chaos kills/crashes = %d/%d, want >= %d/0", st.ChaosKills, st.Crashes, n-1)
	}
}

// TestChaosLatencyTripsDeadline injects a delay longer than the engine's
// per-request deadline: the delayed request must come back with
// fo.OutcomeDeadline (counted as a timeout, not a crash) and the instance
// must survive the episode.
func TestChaosLatencyTripsDeadline(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(4),
		serve.WithDeadline(20*time.Millisecond),
		serve.WithChaos(serve.ChaosConfig{
			LatencyEvery: 1,
			Latency:      200 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	resp, err := eng.Submit(nil, servers.Request{Op: "spin"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != fo.OutcomeDeadline {
		t.Fatalf("delayed request outcome = %v, want deadline-exceeded", resp.Outcome)
	}
	st := eng.Stats()
	if st.ChaosDelays != 1 {
		t.Errorf("chaos delays = %d, want 1", st.ChaosDelays)
	}
	if st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
	if st.Crashes != 0 || st.Restarts != 0 {
		t.Errorf("injected latency killed the instance: crashes=%d restarts=%d",
			st.Crashes, st.Restarts)
	}
}

// TestBreakerTripsOnCrashLoop drives a crash-on-every-request workload in
// Standard mode: after the configured number of consecutive crashes the
// worker must trip the circuit breaker (parking for the cooldown) instead
// of hot-restarting forever — yet every submitted request still gets a
// response.
func TestBreakerTripsOnCrashLoop(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.Standard,
		serve.WithPoolSize(1), serve.WithQueueDepth(4),
		serve.WithBackoff(time.Millisecond, 4*time.Millisecond),
		serve.WithBreaker(3, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 7
	for i := 0; i < n; i++ {
		resp, err := eng.Submit(nil, servers.Request{Op: "smash"})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Crashed() {
			t.Fatalf("smash request %d did not crash (%v)", i, resp.Outcome)
		}
	}
	st := eng.Stats()
	if st.BreakerTrips == 0 {
		t.Errorf("crash loop of %d requests tripped the breaker 0 times", n)
	}
	if st.Crashes != n {
		t.Errorf("crashes = %d, want %d", st.Crashes, n)
	}
	if st.Served != n {
		t.Errorf("served = %d, want %d (every request must be answered)", st.Served, n)
	}
}

// TestCloseUnblocksSubmitters verifies a Close with requests in flight
// returns ErrClosed to blocked submitters instead of deadlocking.
func TestCloseUnblocksSubmitters(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.FailureOblivious,
		serve.WithPoolSize(1), serve.WithQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Submit(nil, servers.Request{Op: "spin"})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	done := make(chan struct{})
	go func() { eng.Close(); close(done) }()
	select {
	case err := <-errc:
		if !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("blocked submit returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit still blocked after Close")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestStatsScrapeUnderRestartStorm pins the O(live-pool) scrape: Stats()
// folds retired instances' telemetry into a cached aggregate at retirement
// time, so concurrent scrapers during a restart storm (every request
// crashes its instance) see monotone, never-lost counters — and the scrape
// cost stays flat no matter how many instances have been retired
// (BenchmarkStatsScrape tracks the cost itself).
func TestStatsScrapeUnderRestartStorm(t *testing.T) {
	eng, err := serve.New(&stubServer{}, fo.Standard,
		serve.WithPoolSize(2), serve.WithQueueDepth(8),
		serve.WithBackoff(time.Millisecond, 2*time.Millisecond),
		serve.WithBreaker(0, 0)) // no breaker: keep the storm raging
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var prev serve.Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := eng.Stats()
				if st.Crashes < prev.Crashes || st.Served < prev.Served {
					t.Errorf("scrape went backwards: crashes %d→%d served %d→%d",
						prev.Crashes, st.Crashes, prev.Served, st.Served)
					return
				}
				prev = st
				_ = st.MemErrors.Total()
				_ = eng.Metrics().Latency.P99
			}
		}()
	}

	const storms = 40
	for i := 0; i < storms; i++ {
		resp, err := eng.Submit(nil, servers.Request{Op: "smash"})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Crashed() {
			t.Fatalf("smash %d outcome = %v, want a crash", i, resp.Outcome)
		}
	}
	close(stop)
	scrapers.Wait()

	st := eng.Stats()
	if st.Crashes != storms {
		t.Errorf("crashes = %d, want %d", st.Crashes, storms)
	}
	if st.Served != storms {
		t.Errorf("served = %d, want %d (every stormed request answered)", st.Served, storms)
	}
	if st.Restarts == 0 {
		t.Error("restart storm recorded no restarts")
	}
}
