package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/llm"
	"github.com/snails-bench/snails/internal/trace"
)

// tracing switches the benchmark's timing wrappers on. Off, they only
// delegate, so one traced run can measure a phase both ways and report the
// difference as the tracing overhead.
var tracing atomic.Bool

// idTimes keeps one duration per request of a traced phase, indexed by the
// wire trace ID the client stamped on it: ID i+1 for the phase's request i.
// The router and the servers carry that ID on every hop, so each layer's
// record of a request joins with the client's.
type idTimes struct {
	slots atomic.Pointer[[]atomic.Int64]
}

// reset makes room for a phase of n requests, forgetting the last phase.
func (t *idTimes) reset(n int) {
	s := make([]atomic.Int64, n)
	t.slots.Store(&s)
}

func (t *idTimes) record(h http.Header, d time.Duration) {
	id, ok := trace.Extract(h)
	s := t.slots.Load()
	if !ok || s == nil || id == 0 || id > uint64(len(*s)) {
		return
	}
	(*s)[id-1].Store(int64(d))
}

// get returns the duration recorded for request i, if one was.
func (t *idTimes) get(i int) (time.Duration, bool) {
	s := t.slots.Load()
	if s == nil || i >= len(*s) {
		return 0, false
	}
	d := time.Duration((*s)[i].Load())
	return d, d > 0
}

// apiPaths are the serving API's endpoints, in the order the per-endpoint
// busy metrics name them.
var apiPaths = [...]string{"/v1/infer", "/v1/link", "/v1/classify", "/v1/modify"}

// handlerTap wraps a server or the router and times every call into its
// ServeHTTP.
type handlerTap struct {
	next   http.Handler
	byID   *idTimes
	busy   [len(apiPaths)]atomic.Int64 // nanoseconds, per endpoint
	served atomic.Int64                // API requests
}

func (t *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !tracing.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	t.byID.record(r.Header, d)
	if i := slices.Index(apiPaths[:], r.URL.Path); i >= 0 {
		t.busy[i].Add(int64(d))
		t.served.Add(1)
	}
}

// relayTap wraps the router's forwarding transport and times each relay to
// a shard, from writing the request to the shard's response headers.
type relayTap struct {
	base http.RoundTripper
	byID idTimes
}

func (t *relayTap) RoundTrip(r *http.Request) (*http.Response, error) {
	if !tracing.Load() {
		return t.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	t.byID.record(r.Header, time.Since(start))
	return resp, err
}

// backendTap counts and times the Infer calls of every timedBackend.
type backendTap struct{ calls, errors, busy atomic.Int64 }

// timedBackend wraps a decode backend, registered with a server through
// server.Config.Backends, and times each Infer call.
type timedBackend struct {
	backend.Backend
	tap *backendTap
}

func (b timedBackend) Infer(ctx context.Context, req backend.Request) (backend.Result, error) {
	if !tracing.Load() {
		return b.Backend.Infer(ctx, req)
	}
	start := time.Now()
	res, err := b.Backend.Infer(ctx, req)
	b.tap.busy.Add(int64(time.Since(start)))
	b.tap.calls.Add(1)
	if err != nil {
		b.tap.errors.Add(1)
	}
	return res, err
}

// taps are a traced run's wrappers around one serving stack.
type taps struct {
	servers   []*handlerTap
	serverIDs idTimes // every server's handler time per request
	routerIDs idTimes
	relay     *relayTap // nil for a single server
	be        backendTap
}

// backends builds the synthetic model backends a server would otherwise
// build on first use, one per profile, each behind a timedBackend.
func (t *taps) backends() []backend.Backend {
	var out []backend.Backend
	for _, p := range llm.Profiles() {
		out = append(out, timedBackend{Backend: backend.WrapModel(llm.New(p)), tap: &t.be})
	}
	return out
}

func (t *taps) wrapServer(h http.Handler) http.Handler {
	ht := &handlerTap{next: h, byID: &t.serverIDs}
	t.servers = append(t.servers, ht)
	return ht
}

func (t *taps) wrapRouter(h http.Handler) http.Handler {
	return &handlerTap{next: h, byID: &t.routerIDs}
}

// transport is the router's forwarding transport behind a relayTap. The
// router keeps its own default unexported (defaultTransport in
// internal/cluster/router.go), so these settings copy it by hand and must
// follow it; relaySettings stamps them on every traced cluster result.
func (t *taps) transport() http.RoundTripper {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConns = 256
	base.MaxIdleConnsPerHost = 128
	base.IdleConnTimeout = 30 * time.Second
	t.relay = &relayTap{base: base}
	return t.relay
}

// relaySettings describes the traced router's transport, or is empty when
// the stack has no router.
func (t *taps) relaySettings() string {
	if t == nil || t.relay == nil {
		return ""
	}
	b := t.relay.base.(*http.Transport)
	return fmt.Sprintf("max_idle_conns=%d max_idle_conns_per_host=%d idle_conn_timeout=%s",
		b.MaxIdleConns, b.MaxIdleConnsPerHost, b.IdleConnTimeout)
}

// frontIDs are the per-request times of the handler the client talks to:
// the router in a cluster, the server otherwise.
func (t *taps) frontIDs() *idTimes {
	if t.relay != nil {
		return &t.routerIDs
	}
	return &t.serverIDs
}

// start readies the per-request tables for a traced phase of n requests.
func (t *taps) start(n int) {
	t.serverIDs.reset(n)
	t.routerIDs.reset(n)
	if t.relay != nil {
		t.relay.byID.reset(n)
	}
}

// tally is a reading, at one instant, of every counter the per-layer
// metrics of a traced phase are deltas of.
type tally struct {
	at      time.Time
	rt      runtimeSample
	prom    map[string]float64 // every server's /metrics, summed
	retries float64            // the router's retry counter
	be      [3]int64           // backend calls, errors, busy nanoseconds
	busy    [len(apiPaths)]int64
	served  []int64 // API requests per server
}

func (g *gen) tally() (tally, error) {
	tl := tally{at: time.Now(), rt: readRuntime(), prom: map[string]float64{}}
	for _, u := range g.st.serverURLs {
		m, err := scrape(u + "/metrics")
		if err != nil {
			return tl, err
		}
		for k, x := range m {
			tl.prom[k] += x
		}
	}
	if g.st.routerURL != "" {
		m, err := scrape(g.st.routerURL + "/metrics")
		if err != nil {
			return tl, err
		}
		var ok bool
		if tl.retries, ok = m["snails_router_retries_total"]; !ok {
			return tl, fmt.Errorf("%s/metrics has no snails_router_retries_total", g.st.routerURL)
		}
	}
	t := g.taps
	tl.be = [3]int64{t.be.calls.Load(), t.be.errors.Load(), t.be.busy.Load()}
	for _, s := range t.servers {
		for i := range s.busy {
			tl.busy[i] += s.busy[i].Load()
		}
		tl.served = append(tl.served, s.served.Load())
	}
	return tl, nil
}

// scrape fetches a Prometheus text exposition.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return parseExposition(string(body)), nil
}

// parseExposition maps each sample of a Prometheus text exposition to its
// value, keyed by the series as written, e.g.
// `snails_cache_hits_total{cache="gold"}`.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if x, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = x
		}
	}
	return out
}

// serveLayers fills the per-layer metrics of the traced high-rate phase:
// pipeline, cache and server counters as deltas of every server's /metrics,
// the backend and handler times from the taps, and per-request joins of the
// client's latency with each hop's time. A series absent from both scrapes
// is an error: the server registers every one it exports up front, so an
// absent series has been renamed, and reading it as 0 would hide that.
func (g *gen) serveLayers(v map[string]float64, shots []shot, a, b tally) error {
	var absent []string
	d := func(series string) float64 {
		x, okA := a.prom[series]
		y, okB := b.prom[series]
		if !okA && !okB {
			absent = append(absent, series)
		}
		return y - x
	}
	for _, c := range []string{"response", "gold", "pred"} {
		hits, misses := d(`snails_cache_hits_total{cache="`+c+`"}`), d(`snails_cache_misses_total{cache="`+c+`"}`)
		v["memo."+c+".hit_ratio"] = ratio(hits, hits+misses)
	}
	v["memo.response.evictions"] = d(`snails_cache_evictions_total{cache="response"}`)
	v["memo.coalesced"] = d("snails_cache_coalesced_total")
	v["server.batch.mean_size"] = ratio(d("snails_batched_requests_total"), d("snails_batches_total"))
	refused := d("snails_pool_rejections_total")
	for _, s := range shots {
		if s.status == http.StatusServiceUnavailable {
			refused++
		}
	}
	v["server.rejected"] = refused
	for _, m := range stageLayers {
		if m.layer == "backend.infer" {
			continue // timed around the calls by timedBackend instead
		}
		v[m.layer+".calls"] = d(`snails_stage_duration_seconds_count{stage="` + m.stage + `"}`)
		v[m.layer+".busy_s"] = d(`snails_stage_duration_seconds_sum{stage="` + m.stage + `"}`)
	}
	v["backend.infer.calls"] = float64(b.be[0] - a.be[0])
	v["backend.infer.errors"] = float64(b.be[1] - a.be[1])
	v["backend.infer.busy_s"] = float64(b.be[2]-a.be[2]) / float64(time.Second)
	right, wrong, invalid := d(`snails_infer_verdicts_total{verdict="correct"}`),
		d(`snails_infer_verdicts_total{verdict="incorrect"}`), d(`snails_infer_verdicts_total{verdict="invalid"}`)
	v["sqlparse.parse.ok_ratio"] = ratio(right+wrong, right+wrong+invalid)
	v["evalx.match.yes_ratio"] = ratio(right, right+wrong+invalid)
	// The executor's tallies are process-wide, so every server's exposition
	// repeats them; the ratio is unaffected.
	q, pf, ef := d("snails_sqlexec_queries_total"), d("snails_sqlexec_parse_failures_total"), d("snails_sqlexec_exec_failures_total")
	v["sqlexec.exec.ok_ratio"] = ratio(q-pf-ef, q-pf)
	for i, p := range apiPaths {
		v["server.busy_s."+strings.TrimPrefix(p, "/v1/")] = float64(b.busy[i]-a.busy[i]) / float64(time.Second)
	}
	if len(absent) > 0 {
		return fmt.Errorf("series absent from every /metrics scrape: %s", strings.Join(absent, ", "))
	}

	t := g.taps
	var handler, router, relay, overhead []float64
	var client, front, joined float64
	for i, s := range shots {
		h, okH := t.serverIDs.get(i)
		if okH {
			handler = append(handler, ms(h))
		}
		f, okF := t.frontIDs().get(i)
		if okF {
			client += ms(s.latency)
			front += ms(f)
			joined++
		}
		if t.relay == nil {
			continue
		}
		if okF {
			router = append(router, ms(f))
		}
		if okF && okH {
			overhead = append(overhead, ms(f-h))
		}
		if r, ok := t.relay.byID.get(i); ok {
			relay = append(relay, ms(r))
		}
	}
	for _, xs := range [][]float64{handler, router, relay, overhead} {
		sort.Float64s(xs)
	}
	v["server.handler_ms.p50"], v["server.handler_ms.p99"] = quantile(handler, 0.5), quantile(handler, 0.99)
	v["cluster.router_ms.p50"], v["cluster.router_ms.p99"] = quantile(router, 0.5), quantile(router, 0.99)
	v["cluster.relay_rtt_ms.p50"] = quantile(relay, 0.5)
	v["cluster.overhead_ms.p50"] = quantile(overhead, 0.5)
	if t.relay != nil {
		v["cluster.retries"] = b.retries - a.retries
		served := make([]float64, len(b.served))
		for i := range served {
			served[i] = float64(b.served[i] - a.served[i])
		}
		v["cluster.shard_skew"] = skew(served)
	}
	v["trace.residual_ms"] = ratio(client-front, joined)
	v["trace.residual_share"] = ratio(client-front, client)
	runtimeLayers(v, a.rt, b.rt, b.at.Sub(a.at))
	return nil
}

// residuals fills http.residual_ms: per request, the client's latency minus
// the time the handler it talks to (the server, or the router) spent on it
// — the HTTP stack and loopback hop outside every server-side span.
func (g *gen) residuals(v map[string]float64, shots []shot) {
	var res []float64
	for i, s := range shots {
		if f, ok := g.taps.frontIDs().get(i); ok {
			res = append(res, ms(s.service-f))
		}
	}
	res = sorted(res)
	v["http.residual_ms.p50"], v["http.residual_ms.p99"] = quantile(res, 0.5), quantile(res, 0.99)
}

// skew is how far the busiest server ran above the mean: max ÷ mean − 1.
func skew(counts []float64) float64 {
	var sum, top float64
	for _, c := range counts {
		sum += c
		top = max(top, c)
	}
	if sum == 0 {
		return 0
	}
	return top*float64(len(counts))/sum - 1
}

// runtimeSample holds the Go runtime readings the runtime.* metrics are
// taken from.
type runtimeSample struct{ gcCycles, gcCPU, totalCPU, heapLive, allocs float64 }

func readRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{gcCycles: v[0], gcCPU: v[1], totalCPU: v[2], heapLive: v[3], allocs: v[4]}
}

// runtimeLayers fills the runtime metrics for the interval from a to b.
func runtimeLayers(v map[string]float64, a, b runtimeSample, span time.Duration) {
	v["runtime.gc_cycles"] = b.gcCycles - a.gcCycles
	v["runtime.gc_cpu_fraction"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
	v["runtime.heap_live_mb"] = b.heapLive / mib
	v["runtime.alloc_mb_per_s"] = ratio((b.allocs-a.allocs)/mib, span.Seconds())
}
