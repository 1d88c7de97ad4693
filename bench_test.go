// Package focc_test holds the top-level benchmark harness: one benchmark
// family per table/figure in the paper's evaluation. The servers run on
// their generated engine (internal/genservers), as they do when serving.
// Each benchmark reports wall-clock ns/op plus a "sim-ms/op" metric — the
// simulated request-processing time under the cost model in
// internal/interp/cycles.go, which is what reproduces the paper's slowdown
// shapes (see EXPERIMENTS.md).
//
//	go test -bench=. -benchmem
package focc_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"focc/fo"
	"focc/internal/corpus"
	_ "focc/internal/gencorpus"  // the benchmark programs' generated engines
	_ "focc/internal/genservers" // run the figures on the engine that serves
	"focc/internal/harness"
	"focc/internal/interp"
	"focc/internal/serve"
	"focc/internal/servers"
	"focc/internal/servers/apache"
	"focc/internal/servers/mc"
	"focc/internal/servers/mutt"
	"focc/internal/servers/pine"
	"focc/internal/servers/sendmail"
)

// benchModes are the two versions the paper's performance figures compare.
var benchModes = []fo.Mode{fo.Standard, fo.FailureOblivious}

// benchFigure runs one paper figure: every named request under Standard and
// FailureOblivious instances.
func benchFigure(b *testing.B, srv servers.Server, names []string) {
	reqs := srv.LegitRequests()
	if len(reqs) < len(names) {
		b.Fatalf("server %s has %d requests, need %d", srv.Name(), len(reqs), len(names))
	}
	for i, name := range names {
		req := reqs[i]
		for _, mode := range benchModes {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				inst, err := srv.New(mode)
				if err != nil {
					b.Fatal(err)
				}
				requireCodegen(b, inst.(interface{ Machine() *fo.Machine }).Machine())
				if resp := inst.Handle(req); resp.Crashed() {
					b.Fatalf("warm-up crashed: %v", resp.Err)
				}
				start := inst.Cycles()
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if resp := inst.Handle(req); resp.Crashed() {
						b.Fatalf("request crashed: %v", resp.Err)
					}
				}
				b.StopTimer()
				cycles := inst.Cycles() - start
				simMs := interp.SimSeconds(cycles) * 1e3 / float64(b.N)
				b.ReportMetric(simMs, "sim-ms/op")
			})
		}
	}
}

// requireCodegen fails the benchmark unless m runs the generated engine,
// so a stale registration cannot silently time the tree-walk fallback.
func requireCodegen(b *testing.B, m *fo.Machine) {
	b.Helper()
	if got := m.Engine(); got != fo.EngineGenerated {
		b.Fatalf("machine runs %v, want codegen; regenerate with `go generate ./...`", got)
	}
}

// BenchmarkFig2Pine reproduces Figure 2 (Pine: Read, Compose, Move).
func BenchmarkFig2Pine(b *testing.B) {
	benchFigure(b, pine.NewServer(), []string{"Read", "Compose", "Move"})
}

// BenchmarkFig3Apache reproduces Figure 3 (Apache: Small 5 KB page, Large
// 830 KB file).
func BenchmarkFig3Apache(b *testing.B) {
	benchFigure(b, apache.NewServer(), []string{"Small", "Large"})
}

// BenchmarkFig4Sendmail reproduces Figure 4 (Sendmail: Recv/Send ×
// Small/Large).
func BenchmarkFig4Sendmail(b *testing.B) {
	benchFigure(b, sendmail.NewServer(), []string{"RecvSmall", "RecvLarge", "SendSmall", "SendLarge"})
}

// BenchmarkFig5MC reproduces Figure 5 (Midnight Commander: Copy, Move,
// MkDir, Delete).
func BenchmarkFig5MC(b *testing.B) {
	benchFigure(b, mc.NewServer(), []string{"Copy", "Move", "MkDir", "Delete"})
}

// BenchmarkFig6Mutt reproduces Figure 6 (Mutt: Read, Move).
func BenchmarkFig6Mutt(b *testing.B) {
	benchFigure(b, mutt.NewServer(), []string{"Read", "Move"})
}

// BenchmarkApacheAttackThroughput reproduces the §4.3.2 experiment: the
// pool is flooded with attack requests (three per legitimate fetch) and the
// benchmark unit is one legitimate home-page fetch. The Standard and
// BoundsCheck versions pay child-restart overhead per attack; the Failure
// Oblivious version does not — its ns/op is the highest throughput, which
// the paper reports as roughly 5.7x Bounds Check and 4.8x Standard.
func BenchmarkApacheAttackThroughput(b *testing.B) {
	srv := apache.NewServer()
	for _, mode := range harness.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			pool, err := harness.NewChildPool(srv, mode, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			legit := srv.LegitRequests()[0]
			attack := srv.AttackRequest()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for a := 0; a < 3; a++ {
					if _, err := pool.Handle(attack); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := pool.Handle(legit); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(pool.Restarts())/float64(b.N), "restarts/op")
		})
	}
}

// BenchmarkResilienceMatrix measures the cost of running the full §4.*.2
// security matrix (5 servers × 3 versions, attack + probe each).
func BenchmarkResilienceMatrix(b *testing.B) {
	srvs := []servers.Server{
		pine.NewServer(), apache.NewServer(), sendmail.NewServer(),
		mc.NewServer(), mutt.NewServer(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := harness.ResilienceMatrix(srvs, harness.Modes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationValueSequence benchmarks the §3 ablation's surviving
// configuration: the Midnight-Commander-style sentinel scan running off the
// end of its buffer under the paper's small-integer sequence. (The all-zeros
// generator hangs — demonstrated by TestValueSequenceTermination — so it
// cannot be benchmarked.)
func BenchmarkAblationValueSequence(b *testing.B) {
	prog, err := fo.Compile(corpus.ScanFileName, corpus.SrcScan)
	if err != nil {
		b.Fatal(err)
	}
	m, err := prog.NewMachine(fo.MachineConfig{Mode: fo.FailureOblivious})
	if err != nil {
		b.Fatal(err)
	}
	requireCodegen(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if res := m.Call("scan"); res.Outcome != fo.OutcomeOK {
			b.Fatalf("scan: %v", res.Outcome)
		}
	}
}

// BenchmarkPolicyOverhead is the DESIGN.md ablation of the access-policy
// dispatch itself: a pure pointer-chasing C loop under each policy.
func BenchmarkPolicyOverhead(b *testing.B) {
	prog, err := fo.Compile(corpus.ChurnFileName, corpus.SrcChurn)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []fo.Mode{fo.Standard, fo.BoundsCheck, fo.FailureOblivious, fo.Boundless, fo.Redirect, fo.ModeRewind} {
		b.Run(mode.String(), func(b *testing.B) {
			m, err := prog.NewMachine(fo.MachineConfig{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			requireCodegen(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if res := m.Call("churn", fo.Int(1024)); res.Outcome != fo.OutcomeOK {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

var (
	benchServeOnce sync.Once
	benchServeProg *fo.Program
	benchServeErr  error
)

type benchServeServer struct{}

func (*benchServeServer) Name() string { return "benchstub" }

func (*benchServeServer) New(mode fo.Mode) (servers.Instance, error) {
	benchServeOnce.Do(func() { benchServeProg, benchServeErr = fo.Compile(corpus.BenchServeFileName, corpus.SrcBenchServe) })
	if benchServeErr != nil {
		return nil, benchServeErr
	}
	log := fo.NewEventLog(0)
	m, err := benchServeProg.NewMachine(fo.MachineConfig{Mode: mode, Log: log})
	if err != nil {
		return nil, err
	}
	return &benchServeInstance{Base: servers.Base{ServerName: "benchstub", M: m, EvLog: log}}, nil
}

func (*benchServeServer) LegitRequests() []servers.Request {
	return []servers.Request{{Op: "ok"}, {Op: "poke"}}
}

func (*benchServeServer) AttackRequest() servers.Request { return servers.Request{Op: "poke"} }

type benchServeInstance struct {
	servers.Base
}

func (i *benchServeInstance) Handle(req servers.Request) servers.Response {
	res := i.M.Call(req.Op)
	if res.Outcome != fo.OutcomeOK {
		return servers.Response{Outcome: res.Outcome, Err: res.Err}
	}
	return servers.Response{Outcome: fo.OutcomeOK, Status: int(res.Value.I), Body: "ok"}
}

func (i *benchServeInstance) HandleContext(ctx context.Context, req servers.Request) servers.Response {
	defer i.BindContext(ctx)()
	return i.Attribute(func() servers.Response { return i.Handle(req) })
}

// scrapeParallelism returns the SetParallelism factor that yields ~want
// concurrent benchmark goroutines under the current GOMAXPROCS.
func scrapeParallelism(want int) int {
	p := runtime.GOMAXPROCS(0)
	n := (want + p - 1) / p
	if n < 1 {
		n = 1
	}
	return n
}

// BenchmarkStatsScrape measures the cost of one full observability scrape
// (Stats + Metrics: counters, aggregated memory-error telemetry, latency
// histogram) under 64 concurrent scrapers while the pool serves a
// telemetry-heavy workload. This is the monitoring hot path: a stats
// endpoint polled by many collectors must not serialize against the
// serving path's per-request event accounting.
func BenchmarkStatsScrape(b *testing.B) {
	eng, err := serve.New(&benchServeServer{}, fo.FailureOblivious,
		serve.WithPoolSize(4), serve.WithQueueDepth(256))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Submit(nil, servers.Request{Op: "poke"}); err != nil {
					return
				}
			}
		}()
	}
	b.ReportAllocs()
	b.SetParallelism(scrapeParallelism(64))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m := eng.Metrics()
			_ = m.Served
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// benchDispatch drives the engine with 64 concurrent submitters of the
// tiny "ok" request — the workload where per-request serving overhead
// (queue slot, instance hand-off, checkpoint epoch) dominates execution —
// and reports the per-request cost.
func benchDispatch(b *testing.B, opts ...serve.Option) {
	base := []serve.Option{serve.WithPoolSize(2), serve.WithQueueDepth(256)}
	eng, err := serve.New(&benchServeServer{}, fo.ModeRewind, append(base, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ReportAllocs()
	b.SetParallelism(scrapeParallelism(64))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := eng.Submit(nil, servers.Request{Op: "ok"})
			if err != nil {
				b.Error(err)
				return
			}
			if resp.Outcome != fo.OutcomeOK {
				b.Errorf("outcome = %v, want OK", resp.Outcome)
				return
			}
		}
	})
}

// BenchmarkBatchDispatch compares the small-op serving path with and
// without request batching at equal pool size, under the rewind policy
// (where batching also amortizes the request-boundary checkpoint into one
// epoch per batch). The headline ratio — batched req/s over unbatched —
// is what BENCH_PR10.json records; sub-request semantics are pinned
// equivalent by the batching tests in internal/serve.
func BenchmarkBatchDispatch(b *testing.B) {
	b.Run("unbatched", func(b *testing.B) {
		benchDispatch(b)
	})
	b.Run("batched", func(b *testing.B) {
		benchDispatch(b, serve.WithBatching(16, time.Millisecond))
	})
}

// BenchmarkRewindCheckpoint isolates the cost of the rewind policy's
// request-boundary checkpoint (EXPERIMENTS.md §rewind): "commit" is the
// clean path — a write-heavy request that mutates globals and the heap,
// paying the copy-on-write undo log plus the Commit — and "rollback" is a
// request that trips an out-of-bounds write and pays the full Rewind
// restore. The failure-oblivious contrast for the same commit workload is
// BenchmarkPolicyOverhead/failure-oblivious.
func BenchmarkRewindCheckpoint(b *testing.B) {
	prog, err := fo.Compile(corpus.CheckpointFileName, corpus.SrcCheckpoint)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		fn   string
		arg  int64
		want fo.Outcome
	}{
		{"commit", "handle", 0, fo.OutcomeOK},
		{"rollback", "poison", 64, fo.OutcomeRewound},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m, err := prog.NewMachine(fo.MachineConfig{Mode: fo.ModeRewind})
			if err != nil {
				b.Fatal(err)
			}
			requireCodegen(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if res := m.Call(c.fn, fo.Int(c.arg)); res.Outcome != c.want {
					b.Fatalf("%s: %v (%v)", c.fn, res.Outcome, res.Err)
				}
			}
		})
	}
}
