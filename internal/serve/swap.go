package serve

import (
	"sync/atomic"

	"focc/fo"
	"focc/internal/servers"
)

// SwapServer is an atomically swappable servers.Server: instance creation
// reads the current underlying server through one atomic pointer load, so
// replacing the served program is a pointer flip — no lock on the serving
// path, no teardown of running instances.
//
// This is the factory half of zero-downtime program hot-swap. An
// fo.Program and its engine are immutable and shared by every instance
// (DESIGN.md §13, §16), so instances created before the flip keep executing the old
// program safely while instances created after it run the new one; pairing
// the flip with Engine.Recycle (or Router.Swap, which does both) rolls the
// pool forward between requests without failing any in-flight work.
//
// All methods are safe for concurrent use.
type SwapServer struct {
	cur atomic.Pointer[serverBox]
}

// serverBox wraps the interface value so it can live behind an
// atomic.Pointer (interfaces are two words; the box makes the store one
// pointer).
type serverBox struct {
	srv servers.Server
}

// NewSwapServer returns a SwapServer initially serving srv.
func NewSwapServer(srv servers.Server) *SwapServer {
	s := &SwapServer{}
	s.cur.Store(&serverBox{srv: srv})
	return s
}

// Current returns the server new instances are created from right now.
func (s *SwapServer) Current() servers.Server { return s.cur.Load().srv }

// Swap atomically replaces the underlying server and returns the previous
// one. Instances created from the previous server keep running until they
// are recycled, crash, or retire — Swap alone never interrupts them.
func (s *SwapServer) Swap(next servers.Server) (prev servers.Server) {
	return s.cur.Swap(&serverBox{srv: next}).srv
}

// Name implements servers.Server for the current underlying server.
func (s *SwapServer) Name() string { return s.Current().Name() }

// New implements servers.Server: one atomic load, then the current
// server's factory.
func (s *SwapServer) New(mode fo.Mode) (servers.Instance, error) {
	return s.Current().New(mode)
}

// LegitRequests implements servers.Server for the current underlying
// server.
func (s *SwapServer) LegitRequests() []servers.Request { return s.Current().LegitRequests() }

// AttackRequest implements servers.Server for the current underlying
// server.
func (s *SwapServer) AttackRequest() servers.Request { return s.Current().AttackRequest() }

// NewWithConfig implements servers.Configurable when the current
// underlying server does, so fault-injection tooling keeps working through
// a swappable front.
func (s *SwapServer) NewWithConfig(mode fo.Mode, hook servers.ConfigHook) (servers.Instance, error) {
	if c, ok := s.Current().(servers.Configurable); ok {
		return c.NewWithConfig(mode, hook)
	}
	return s.New(mode)
}
