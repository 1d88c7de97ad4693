// The Router is the cluster-scale front end over the Engine: it
// consistent-hashes requests by tenant key across N engine shards, applies
// per-tenant admission quotas and a router-wide adaptive concurrency limit
// (AIMD on observed p95 — see AIMDConfig), runs every shard's queue with
// the deadline-aware shedding gate on, and coordinates zero-downtime program
// hot-swap across the fleet (Swap = one atomic pointer flip + a rolling
// recycle of every shard's instances). See DESIGN.md §14.

package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"focc/fo"
	"focc/internal/servers"
)

// Errors returned by Router.Submit in addition to the Engine's.
var (
	// ErrOverQuota rejects a request whose tenant already has its full
	// admission quota in flight (WithTenantQuota). Other tenants are
	// unaffected — that is the point.
	ErrOverQuota = errors.New("serve: tenant admission quota exhausted")
	// ErrOverLimit rejects a request arriving while the router-wide
	// adaptive concurrency limit is saturated (WithAIMD): observed latency
	// says the cluster cannot absorb more in-flight work.
	ErrOverLimit = errors.New("serve: adaptive concurrency limit saturated")
)

// RouterOption configures a Router. Like Engine options, the setters
// record exactly what was asked for and NewRouter validates the assembled
// configuration, returning descriptive errors instead of silently
// clamping.
type RouterOption func(*routerOptions)

type routerOptions struct {
	shards    int
	shardsSet bool // WithShards called: weights must match instead of infer
	weights   []int
	quota     int
	aimd      AIMDConfig
	shed      ShedConfig
	engine    []Option
}

func defaultRouterOptions() routerOptions {
	return routerOptions{
		shards: 4,
		quota:  0, // unlimited per-tenant admission unless configured
		// Shards shed by default: a cluster front end exists to stay
		// responsive under overload, and the bounded-FIFO alternative is
		// still available through a standalone Engine.
		shed: ShedConfig{Target: 5 * time.Millisecond, Interval: 25 * time.Millisecond},
	}
}

func (o *routerOptions) validate() error {
	if o.shards <= 0 {
		return fmt.Errorf("serve: shard count %d: must be at least 1", o.shards)
	}
	if len(o.weights) > 0 {
		if len(o.weights) != o.shards {
			return fmt.Errorf("serve: %d shard weights for %d shards: provide exactly one weight per shard", len(o.weights), o.shards)
		}
		for i, w := range o.weights {
			if w < 1 {
				return fmt.Errorf("serve: shard %d weight %d: must be at least 1", i, w)
			}
			if w > maxShardWeight {
				return fmt.Errorf("serve: shard %d weight %d: must be at most %d", i, w, maxShardWeight)
			}
		}
	}
	if o.quota < 0 {
		return fmt.Errorf("serve: tenant quota %d: must be positive (or 0 for unlimited)", o.quota)
	}
	if err := o.aimd.validate(); err != nil {
		return err
	}
	if o.shed.enabled() {
		if o.shed.Target <= 0 {
			return fmt.Errorf("serve: shedding sojourn target %v: must be positive", o.shed.Target)
		}
		if o.shed.Interval <= 0 {
			return fmt.Errorf("serve: shedding interval %v: must be positive", o.shed.Interval)
		}
	}
	return nil
}

// WithShards sets the number of engine shards requests are
// consistent-hashed across. NewRouter rejects n <= 0.
func WithShards(n int) RouterOption {
	return func(o *routerOptions) { o.shards, o.shardsSet = n, true }
}

// maxShardWeight bounds a shard's ring weight: the ring holds
// weight×ringVnodes points per shard, and weights beyond this add memory
// without improving the load split.
const maxShardWeight = 64

// WithShardWeights sets relative capacity weights for the shards: shard i
// owns weights[i]×ringVnodes points on the hash ring and therefore
// receives a proportional share of tenants — the way a heterogeneous
// fleet gives a box with twice the cores twice the traffic. Without
// WithShards the shard count is inferred from len(weights); with it the
// lengths must match. NewRouter rejects weights below 1 or above
// maxShardWeight. Omitting WithShardWeights weights every shard equally.
func WithShardWeights(weights ...int) RouterOption {
	return func(o *routerOptions) {
		o.weights = append([]int(nil), weights...)
		if !o.shardsSet {
			o.shards = len(weights)
		}
	}
}

// WithTenantQuota caps each tenant's in-flight requests at n: a tenant at
// its quota gets ErrOverQuota while every other tenant's admission is
// untouched, so one flooding tenant (or one attacker) cannot starve the
// rest. n == 0 disables quotas; NewRouter rejects negative n.
func WithTenantQuota(n int) RouterOption {
	return func(o *routerOptions) { o.quota = n }
}

// WithAIMD enables the router-wide adaptive concurrency limit (see
// AIMDConfig). The zero config disables it.
func WithAIMD(c AIMDConfig) RouterOption {
	return func(o *routerOptions) { o.aimd = c }
}

// WithShardShedding overrides the shedding gate configuration applied to
// every shard's admission queue (see ShedConfig). Routers shed by default;
// the zero config turns the gate off, leaving each shard a plain bounded
// FIFO.
func WithShardShedding(c ShedConfig) RouterOption {
	return func(o *routerOptions) { o.shed = c }
}

// WithShardOptions appends Engine options applied to every shard (pool
// size, queue depth, deadline, backoff, breaker, warm spares, chaos …).
// They are applied after the router's own shard configuration, so an
// explicit WithShedding here wins over WithShardShedding.
func WithShardOptions(opts ...Option) RouterOption {
	return func(o *routerOptions) { o.engine = append(o.engine, opts...) }
}

// Router consistent-hashes requests by tenant key across a fleet of Engine
// shards, with per-tenant quotas, an adaptive concurrency limit, and
// coordinated zero-downtime program hot-swap. All methods are safe for
// concurrent use.
type Router struct {
	o    routerOptions
	mode fo.Mode

	swap   *SwapServer
	shards []*Engine
	ring   hashRing

	limiter *aimdLimiter // nil when AIMD is disabled
	tenants *tenantTable // nil when quotas are disabled

	overQuota, overLimit, swaps, rebalanced atomic.Uint64
}

// NewRouter builds the shard fleet over srv (wrapped in a SwapServer so
// the served program can be hot-swapped later) and validates the combined
// configuration, failing fast on invalid options or instance-creation
// errors.
func NewRouter(srv servers.Server, mode fo.Mode, opts ...RouterOption) (*Router, error) {
	o := defaultRouterOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	r := &Router{
		o:    o,
		mode: mode,
		swap: NewSwapServer(srv),
		ring: newHashRing(o.shards, ringVnodes, o.weights),
	}
	engineOpts := append([]Option{WithShedding(o.shed)}, o.engine...)
	r.shards = make([]*Engine, o.shards)
	for i := range r.shards {
		eng, err := New(r.swap, mode, engineOpts...)
		if err != nil {
			for _, started := range r.shards[:i] {
				started.Close()
			}
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		r.shards[i] = eng
	}
	totalWorkers := o.shards * r.shards[0].PoolSize()
	if o.aimd.enabled() {
		r.limiter = newAIMDLimiter(o.aimd, totalWorkers)
	}
	if o.quota > 0 {
		r.tenants = newTenantTable(o.quota)
	}
	return r, nil
}

// Mode returns the fleet's execution mode.
func (r *Router) Mode() fo.Mode { return r.mode }

// ShardCount returns the number of engine shards.
func (r *Router) ShardCount() int { return len(r.shards) }

// Shard returns the index of the shard serving tenant — stable for a given
// tenant key and shard count (consistent hashing over a ring of virtual
// nodes). This is the tenant's *home* shard; Submit may temporarily route
// around it while its breaker is tripped (see shardFor).
func (r *Router) Shard(tenant string) int { return r.ring.lookup(tenant) }

// shardFor resolves the shard that should serve tenant right now: the home
// shard unless its circuit breaker is tripped, in which case the tenant's
// ring point walks clockwise to the first healthy shard — the tripped
// shard's vnodes redistribute across the healthy fleet per vnode (different
// tenants land on different successors), and the very next request after
// recovery routes home again because health is read per lookup, not
// cached. With every shard tripped the home shard is returned unchanged:
// queueing at the real destination beats bouncing between dead shards.
func (r *Router) shardFor(tenant string) int {
	s, rerouted := r.ring.lookupHealthy(tenant, func(i int) bool { return !r.shards[i].Tripped() })
	if rerouted {
		r.rebalanced.Add(1)
	}
	return s
}

// Submit routes one request by tenant key: quota check, adaptive-limit
// check, then the tenant's shard. The error surface is the Engine's plus
// ErrOverQuota and ErrOverLimit; both reject *before* queuing, so they are
// cheap upstream backpressure.
func (r *Router) Submit(ctx context.Context, tenant string, req servers.Request) (servers.Response, error) {
	if r.tenants != nil {
		if !r.tenants.acquire(tenant) {
			r.overQuota.Add(1)
			return servers.Response{}, ErrOverQuota
		}
		defer r.tenants.release(tenant)
	}
	if r.limiter != nil {
		if !r.limiter.acquire() {
			r.overLimit.Add(1)
			return servers.Response{}, ErrOverLimit
		}
		t0 := time.Now()
		resp, err := r.shards[r.shardFor(tenant)].Submit(ctx, req)
		// Only executed requests carry a latency signal; queue-level
		// rejections would read as "fast" and push the limit up exactly
		// when the cluster is drowning.
		r.limiter.release(time.Since(t0), err == nil)
		return resp, err
	}
	return r.shards[r.shardFor(tenant)].Submit(ctx, req)
}

// Swap atomically replaces the served program for the whole fleet and
// rolls every shard's instances forward (Engine.Recycle): new instances —
// including warm spares — are created from next, in-flight requests finish
// on the instances that started them, and no request fails. It returns the
// previously served server.
func (r *Router) Swap(next servers.Server) (prev servers.Server) {
	prev = r.swap.Swap(next)
	for _, shard := range r.shards {
		shard.Recycle()
	}
	r.swaps.Add(1)
	return prev
}

// Current returns the server the fleet currently creates instances from.
func (r *Router) Current() servers.Server { return r.swap.Current() }

// Close shuts every shard down (concurrently) and waits for all of them.
func (r *Router) Close() {
	var wg sync.WaitGroup
	for _, shard := range r.shards {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.Close()
		}(shard)
	}
	wg.Wait()
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	// Admitted counts requests that passed the quota gate.
	Admitted uint64
	// Denied counts ErrOverQuota rejections.
	Denied uint64
	// InFlight is the tenant's currently executing (or queued) requests.
	InFlight int
}

// RouterStats is a snapshot of the router and its shard fleet: the
// embedded Stats are the totals across shards (counters summed, MemErrors
// merged), Shards the per-shard breakdown.
type RouterStats struct {
	Stats
	// Shards is the per-shard breakdown, indexed by shard.
	Shards []Stats
	// OverQuota counts ErrOverQuota rejections (all tenants).
	OverQuota uint64
	// OverLimit counts ErrOverLimit rejections.
	OverLimit uint64
	// Swaps counts program hot-swaps performed.
	Swaps uint64
	// Rebalanced counts requests routed away from their home shard while
	// its circuit breaker was tripped (cross-shard rebalancing). Zero in a
	// healthy fleet: traffic returns home the moment the breaker closes.
	Rebalanced uint64
	// Limit is the current adaptive concurrency limit (0 when AIMD is
	// disabled).
	Limit int
	// Tenants is the per-tenant admission accounting (nil without
	// WithTenantQuota).
	Tenants map[string]TenantStats
}

// Stats returns a snapshot of the router's counters and every shard's.
// Safe to call from any goroutine at any time.
func (r *Router) Stats() RouterStats {
	rs := RouterStats{
		Shards:     make([]Stats, len(r.shards)),
		OverQuota:  r.overQuota.Load(),
		OverLimit:  r.overLimit.Load(),
		Swaps:      r.swaps.Load(),
		Rebalanced: r.rebalanced.Load(),
	}
	for i, shard := range r.shards {
		rs.Shards[i] = shard.Stats()
		rs.Stats.add(rs.Shards[i])
	}
	if r.limiter != nil {
		rs.Limit = r.limiter.Limit()
	}
	if r.tenants != nil {
		rs.Tenants = r.tenants.snapshot()
	}
	return rs
}

// RouterMetrics is RouterStats plus the fleet-wide latency histogram
// (every shard's buckets summed).
type RouterMetrics struct {
	RouterStats
	Latency LatencySnapshot
}

// Metrics returns the full observability snapshot for the fleet.
func (r *Router) Metrics() RouterMetrics {
	snaps := make([]LatencySnapshot, len(r.shards))
	for i, shard := range r.shards {
		snaps[i] = shard.latency.snapshot()
	}
	return RouterMetrics{RouterStats: r.Stats(), Latency: mergeLatencySnapshots(snaps...)}
}

// tenantTable tracks per-tenant in-flight counts against a uniform quota.
// Tenant states are retained for the router's lifetime (they are a handful
// of words each; a serving fleet's tenant set is bounded by its user base,
// and retaining them keeps Admitted/Denied accounting stable).
type tenantTable struct {
	mu    sync.Mutex
	quota int
	m     map[string]*tenantState
}

type tenantState struct {
	inflight int
	admitted uint64
	denied   uint64
}

func newTenantTable(quota int) *tenantTable {
	return &tenantTable{quota: quota, m: make(map[string]*tenantState)}
}

func (t *tenantTable) acquire(tenant string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.m[tenant]
	if st == nil {
		st = &tenantState{}
		t.m[tenant] = st
	}
	if st.inflight >= t.quota {
		st.denied++
		return false
	}
	st.inflight++
	st.admitted++
	return true
}

func (t *tenantTable) release(tenant string) {
	t.mu.Lock()
	t.m[tenant].inflight--
	t.mu.Unlock()
}

func (t *tenantTable) snapshot() map[string]TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TenantStats, len(t.m))
	for k, st := range t.m {
		out[k] = TenantStats{Admitted: st.admitted, Denied: st.denied, InFlight: st.inflight}
	}
	return out
}

// ringVnodes is the number of virtual nodes per shard on the hash ring:
// enough that per-shard load spread stays within a few percent, small
// enough that building the ring is trivial.
const ringVnodes = 128

// hashRing is a consistent-hash ring over the shard set: each shard owns
// weight×ringVnodes points (weight 1 without WithShardWeights), a tenant
// maps to the first point clockwise from its hash. Tenant→shard assignment
// therefore depends only on (tenant, shard count, weights), spreads
// tenants proportionally to weight, and — the consistent-hashing property
// — changing the shard count moves only ~1/N of tenants, which keeps any
// future shard-scaling change from reshuffling every tenant's cache and
// instance affinity.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newHashRing builds the ring. weights scales each shard's vnode count
// (nil = every shard at weight 1); a weight-1 shard's points are identical
// to the unweighted ring's, so introducing weights only moves tenants
// toward the up-weighted shards.
func newHashRing(shards, vnodes int, weights []int) hashRing {
	total := 0
	for s := 0; s < shards; s++ {
		n := vnodes
		if weights != nil {
			n *= weights[s]
		}
		total += n
	}
	pts := make([]ringPoint, 0, total)
	for s := 0; s < shards; s++ {
		n := vnodes
		if weights != nil {
			n *= weights[s]
		}
		for v := 0; v < n; v++ {
			pts = append(pts, ringPoint{hash: ringHash(fmt.Sprintf("shard-%d-vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard // deterministic on (vanishingly rare) collisions
	})
	return hashRing{points: pts}
}

// find returns the index of the first ring point clockwise from key's hash.
func (r hashRing) find(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the ring
	}
	return i
}

func (r hashRing) lookup(key string) int {
	return r.points[r.find(key)].shard
}

// lookupHealthy resolves key to its home shard, or — when healthy(home)
// is false — continues clockwise from the key's ring point to the first
// point owned by a healthy shard (rerouted=true). Walking ring points
// rather than shard numbers is what redistributes a dead shard's load:
// each of its vnodes has a different successor, so its tenants spread
// across the healthy fleet instead of piling onto one neighbor. When no
// healthy shard exists the home shard is returned with rerouted=false.
func (r hashRing) lookupHealthy(key string, healthy func(int) bool) (shard int, rerouted bool) {
	i := r.find(key)
	home := r.points[i].shard
	if healthy(home) {
		return home, false
	}
	for j := 1; j < len(r.points); j++ {
		s := r.points[(i+j)%len(r.points)].shard
		if s != home && healthy(s) {
			return s, true
		}
	}
	return home, false
}

// ringHash is FNV-1a with a splitmix64-style avalanche finalizer, inlined
// to keep the per-request hash allocation-free. Plain FNV clusters
// structured keys ("tenant-1", "tenant-2", …) on the ring badly enough to
// skew shard load several-fold; the finalizer spreads them uniformly.
func ringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
