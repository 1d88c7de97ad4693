package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"focc/fo"
	"focc/fo/srv"
)

// span is one traced request: the request span (due → reply checked)
// enclosing router.submit (Submit call → return), which encloses
// instance.handle (HandleContext call → return) when the request reached
// an instance. The instance wrapper fills the handle fields on the worker
// goroutine; Submit's reply hand-off orders those writes before the
// client reads them.
type span struct {
	id          uint64
	kind        int
	out         outcome
	due         time.Time
	submitStart time.Time
	handleStart time.Time
	handleEnd   time.Time
	submitEnd   time.Time
	replyEnd    time.Time
	cycles      uint64 // simulated cycles the request cost (Instance.Cycles delta)
	memErrors   uint64 // Response.MemErrors.Total()
}

type spanKey struct{}

// tracer records spawn times and request spans for one traced run.
type tracer struct {
	mu     sync.Mutex
	spawns []time.Duration
}

func (t *tracer) spawned(d time.Duration) {
	t.mu.Lock()
	t.spawns = append(t.spawns, d)
	t.mu.Unlock()
}

func (t *tracer) spawnTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.spawns...)
}

// tracedServer times Server.New and wraps every instance it makes.
type tracedServer struct {
	srv.Server
	t *tracer
}

func (s *tracedServer) New(mode fo.Mode) (srv.Instance, error) {
	t0 := time.Now()
	inst, err := s.Server.New(mode)
	s.t.spawned(time.Since(t0))
	if err != nil {
		return nil, err
	}
	return wrapInstance(inst)
}

// capable is every optional instance capability the serving engine
// discovers by type assertion. The wrapper forwards all of them, so a
// traced run executes the same engine code paths as an untraced one.
type capable interface {
	srv.Instance
	Release()
	Kill()
	BeginBatch()
	EndBatch()
	BindBatch(context.Context) (release func())
}

// tracedInstance times HandleContext and reads the simulated cycle count
// around it. Both reads happen on the worker goroutine between requests,
// which the Instance contract allows.
type tracedInstance struct {
	capable
}

func wrapInstance(inst srv.Instance) (srv.Instance, error) {
	c, ok := inst.(capable)
	if !ok {
		return nil, fmt.Errorf("trace: %s instance lacks an optional capability (Release, Kill, BeginBatch/EndBatch, BindBatch)", inst.Name())
	}
	return &tracedInstance{c}, nil
}

func (i *tracedInstance) HandleContext(ctx context.Context, req srv.Request) srv.Response {
	sp, _ := ctx.Value(spanKey{}).(*span)
	c0 := i.capable.Cycles()
	t0 := time.Now()
	resp := i.capable.HandleContext(ctx, req)
	t1 := time.Now()
	if sp != nil {
		sp.handleStart, sp.handleEnd = t0, t1
		sp.cycles = i.capable.Cycles() - c0
	}
	return resp
}

// layerSelf splits one span into the self time of each layer: the
// generator's wait before sending, the router's time around the instance
// (admission, queue, hand-off, reply), the instance's handling, and the
// residual the enclosing request span has beyond its children (the
// client's output check).
type layerSelf struct {
	request, gen, serve, handle, residual time.Duration
}

func (sp *span) self() layerSelf {
	l := layerSelf{
		request: sp.replyEnd.Sub(sp.due),
		gen:     sp.submitStart.Sub(sp.due),
		serve:   sp.submitEnd.Sub(sp.submitStart),
	}
	if !sp.handleStart.IsZero() {
		l.handle = sp.handleEnd.Sub(sp.handleStart)
		l.serve -= l.handle
	}
	l.residual = l.request - l.gen - l.serve - l.handle
	return l
}

// writeSpans writes the spans as CSV, times in ns from the first due
// time, to path.
func writeSpans(path string, kinds []kind, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,kind,outcome,due_ns,submit_start_ns,handle_start_ns,handle_end_ns,submit_end_ns,reply_ns,sim_cycles,memerrors")
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].due
	}
	ns := func(t time.Time) int64 {
		if t.IsZero() {
			return -1
		}
		return t.Sub(t0).Nanoseconds()
	}
	for i := range spans {
		sp := &spans[i]
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n", sp.id, kinds[sp.kind].name, sp.out,
			ns(sp.due), ns(sp.submitStart), ns(sp.handleStart), ns(sp.handleEnd), ns(sp.submitEnd), ns(sp.replyEnd),
			sp.cycles, sp.memErrors)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
