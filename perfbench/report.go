package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// allKinds names every request kind a workload can send; per-kind
// per-layer metrics exist for each, reading 0 on workloads without it.
var allKinds = []string{"read", "compose", "move", "index", "attack"}

func ms(us float64) float64 { return us / 1000 }

// tailOrDuration is v, or the phase length when failures pushed the
// percentile past every reply (+Inf cannot be printed as JSON).
func tailOrDuration(v float64, p phaseStats) float64 {
	if v == inf {
		return float64(p.Dur / time.Microsecond)
	}
	return v
}

// endToEnd computes the metrics a client of the server sees. Times and
// rates are reported at the reference host speed (see hostScale); the
// figures as timed on the run are kept beside them.
func (b *bench) endToEnd(m *measurement) []metric {
	var setups []float64
	for _, s := range m.setups {
		setups = append(setups, s.total.Seconds())
	}
	lat := func(p measured, pct float64) float64 { return ms(tailOrDuration(p.legitPercentile(pct), p.phaseStats)) }
	ht := m.heavy.totals()
	lt := m.light.totals()
	cpu := m.heavy.delta.cpu - ht.spinCPU
	served := float64(lt.legitOK+ht.legitOK) / float64(max(1, lt.legitSent+ht.legitSent))
	k := hostScale(m.refs)
	scaled := func(name, unit string, raw, by float64) metric { return metric{name, unit, raw * by, raw} }
	return []metric{
		scaled("setup_s", "s", median(setups), k),
		scaled("max_rate_rps", "req/s", m.maxRate, 1/k),
		scaled("p50_ms.light", "ms", lat(m.light, 50), k),
		scaled("tail_ms.light", "ms", lat(m.light, b.w.TailPct), k),
		scaled("p50_ms.heavy", "ms", lat(m.heavy, 50), k),
		scaled("tail_ms.heavy", "ms", lat(m.heavy, b.w.TailPct), k),
		scaled("cpu_us_per_req", "us", float64(cpu/time.Nanosecond)/1000/float64(max(1, ht.legitOK)), k),
		{"served_ratio", "ratio", served, served},
		{"heap_peak_mb", "MB", float64(m.heapPeak) / (1 << 20), float64(m.heapPeak) / (1 << 20)},
	}
}

// perLayer computes the per-layer metrics: span-derived ones from the
// traced half t, counter-derived ones from the untraced half u, and the
// tracing overhead as traced minus untraced for every end-to-end metric.
func (b *bench) perLayer(u, t *measurement, eu, et []metric) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v, v}) }

	var compile, lower []float64
	for _, s := range t.setups {
		compile = append(compile, float64(s.compile)/float64(time.Millisecond))
		lower = append(lower, float64(s.lower)/float64(time.Millisecond))
	}
	add("cc.compile_ms", "ms", median(compile))
	add("interp.lower_ms", "ms", median(lower))
	var spawns []float64
	for _, d := range t.spawns {
		spawns = append(spawns, float64(d)/float64(time.Millisecond))
	}
	add("servers.spawn_ms", "ms", median(spawns))
	add("servers.spawns", "count", float64(len(t.spawns)))

	// Per request kind, from the spans that reached an instance.
	byKind := map[string][]*span{}
	var legit []*span
	for i := range t.heavySpans {
		sp := &t.heavySpans[i]
		k := b.kinds[sp.kind]
		if sp.handleStart.IsZero() {
			continue
		}
		byKind[k.name] = append(byKind[k.name], sp)
		if !k.attack {
			legit = append(legit, sp)
		}
	}
	for _, k := range allKinds {
		var handle, cycles, memerr []float64
		for _, sp := range byKind[k] {
			handle = append(handle, us(sp.handleEnd.Sub(sp.handleStart)))
			cycles = append(cycles, float64(sp.cycles))
			memerr = append(memerr, float64(sp.memErrors))
		}
		sort.Float64s(handle)
		add("servers.handle_us."+k+".p50", "us", percentile(handle, 50))
		add("servers.handle_us."+k+".p99", "us", percentile(handle, 99))
		add("interp.sim_cycles_per_req."+k, "cycles", median(cycles))
		add("core.memerr_per_req."+k, "count", median(memerr))
	}

	var pre, post []float64
	var self layerSelf
	for _, sp := range legit {
		l := sp.self()
		pre = append(pre, us(sp.handleStart.Sub(sp.submitStart)))
		post = append(post, us(sp.submitEnd.Sub(sp.handleEnd)))
		self.request += l.request
		self.gen += l.gen
		self.serve += l.serve
		self.handle += l.handle
		self.residual += l.residual
	}
	sort.Float64s(pre)
	sort.Float64s(post)
	add("serve.pre_us.p50", "us", percentile(pre, 50))
	add("serve.pre_us.p99", "us", percentile(pre, 99))
	add("serve.post_us.p50", "us", percentile(post, 50))
	add("serve.post_us.p99", "us", percentile(post, 99))
	scrapes := append([]float64(nil), u.scrapes...)
	sort.Float64s(scrapes)
	add("serve.scrape_us.p50", "us", percentile(scrapes, 50))
	add("serve.scrape_us.p99", "us", percentile(scrapes, 99))

	// Router counter deltas over the untraced heavy chunks.
	d := u.heavy.delta
	perAttack := 0.0
	if a := u.heavy.acct.attacks; a > 0 {
		perAttack = float64(d.restarts) / float64(a)
	}
	add("serve.restarts_per_attack", "ratio", perAttack)
	add("serve.breaker_trips", "count", float64(d.breakerTrips))
	add("serve.timeouts", "count", float64(d.timeouts))
	add("serve.refused", "count", float64(d.refused))

	ht := u.heavy.totals()
	add("go.allocs_per_req", "count", float64(d.allocs)/float64(max(1, ht.sent)))
	gcFrac := 0.0
	if d.totalCPU > 0 {
		gcFrac = d.gcCPU / d.totalCPU
	}
	add("go.gc_cpu_frac", "ratio", gcFrac)
	add("gen.late_p99_ms", "ms", ms(percentile(u.heavy.lateness(), 99)))
	add("gen.backlog_end", "count", float64(ht.backlog))
	add("gen.retakes", "count", float64(u.light.retakes+u.heavy.retakes+t.light.retakes+t.heavy.retakes))

	n := float64(max(1, len(legit)))
	mean := func(d time.Duration) float64 { return us(d) / n }
	add("span.request_us", "us", mean(self.request))
	add("span.gen_self_us", "us", mean(self.gen))
	add("span.serve_self_us", "us", mean(self.serve))
	add("span.handle_self_us", "us", mean(self.handle))
	add("span.residual_us", "us", mean(self.residual))

	for i := range eu {
		add("overhead."+eu[i].name, eu[i].unit, et[i].value-eu[i].value)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// describe prints a human-readable account of one measurement: set-up
// split, every phase with its sample counts, the max-rate probes and the
// end-to-end metrics.
func (b *bench) describe(w io.Writer, m *measurement, e []metric) {
	mode := "untraced"
	if m.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s measurement, %s, tail = p%g of legit latency from due time, limit %v\n", mode, b.w.Name, b.w.TailPct, b.limit)
	var c, l, s []float64
	for _, st := range m.setups {
		c = append(c, float64(st.compile)/1e6)
		l = append(l, float64(st.lower)/1e6)
		s = append(s, float64(st.total)/1e6)
	}
	fmt.Fprintf(w, "setup (median of %d): compile %.3f ms, lower %.3f ms, total %.3f ms\n", len(s), median(c), median(l), median(s))
	fmt.Fprintf(w, "host: reference work median of %d %.4f ms, %v nominal: times scale by %.4f\n",
		len(m.refs), ms(us(refMedian(m.refs))), refNominal, hostScale(m.refs))
	for _, p := range []struct {
		name string
		ps   measured
	}{{"light", m.light}, {"heavy", m.heavy}} {
		t := p.ps.totals()
		beyond := int(float64(t.legitSent) * (1 - b.w.TailPct/100))
		fmt.Fprintf(w, "%s: %.0f req/s for %v: sent %d ok %d failed %d refused %d backlog %d; legit %d (%d beyond p%g); p50 %.3f ms, p%g %.3f ms; slowest reply %.3f ms; late p99 %.3f ms; retakes %d\n",
			p.name, p.ps.Rate, p.ps.Dur, t.sent, t.ok, t.failed, t.refused, t.backlog, t.legitSent, beyond, b.w.TailPct,
			ms(p.ps.legitPercentile(50)), b.w.TailPct, ms(p.ps.legitPercentile(b.w.TailPct)), ms(us(t.worst)), ms(percentile(p.ps.lateness(), 99)), p.ps.retakes)
	}
	for _, p := range m.probes {
		fmt.Fprintf(w, "probe at %.0f req/s offered: answered %.1f req/s (%d sent)\n", b.w.SaturateRPS, p.rate, p.sent)
	}
	for _, x := range e {
		fmt.Fprintf(w, "%-16s %14.6f %-6s (as timed %.6f)\n", x.name, x.value, x.unit, x.raw)
	}
}
