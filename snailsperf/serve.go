package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"github.com/snails-bench/snails/internal/cluster"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/server"
	"github.com/snails-bench/snails/internal/trace"
)

// conns is how many client connections the load generator uses: one
// process sends all the load, and it shares the bench machine's two cores
// with the servers.
const conns = 2

// serveProfile freezes one serving workload's offered load. Every run
// measures latency at the two fixed rates: low leaves the server idle
// between most requests, so they take the immediate-dispatch path; high
// sits at 35–40% of the rate the workload saturated at when the rates were
// frozen. Nearer saturation, queueing multiplies every slow second of a
// shared 2-core machine, and the high-rate p50 no longer repeats.
type serveProfile struct{ lowRPS, highRPS float64 }

// serveProfiles are part of the benchmark's definition: changing a rate
// changes what every later run is compared against.
var serveProfiles = map[string]serveProfile{
	"serve-wide":  {lowRPS: 2000, highRPS: 10000},
	"cluster-hot": {lowRPS: 2000, highRPS: 12000},
}

// populationSeed draws each serving workload's table of distinct requests.
// The table is part of the workload, like the paper's grid; --seed draws
// the traffic from it and the arrival schedule.
const populationSeed = 1

// rounds is how many times an untraced serving run alternates the high
// rate and saturation. Interleaved, each metric samples the whole run, and
// taken as the median over rounds it shrugs off the few seconds in which a
// collection or the shared machine slowed everything down.
const rounds = 12

// wideSample is how sparsely serve-wide keeps bodies to check: one key in
// this many, chosen by the seed.
const wideSample = 16

func runServe(o options, stderr io.Writer) (outcome, error) {
	prof := serveProfiles[o.workload]
	v := map[string]float64{}
	var tp *taps
	if o.trace {
		tp = &taps{}
		// Built one module at a time and timed, ahead of the stack, which
		// then finds them built.
		buildInputs(v)
		timed(v, "naturalness.train_s", func() { experiments.TrainedClassifier() })
	}
	st, err := buildStack(o.workload, tp)
	if err != nil {
		return outcome{}, err
	}
	defer st.close()
	setups := []float64{secondsSince(processStart)}

	// The databases, question sets and classifier are process-wide memos,
	// so only a fresh process pays for set-up again: the untraced run times
	// two more.
	if !o.trace {
		more, err := probeSetup(o.workload, 2)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, more...)
	}

	// A server that sits idle after start-up is collected before traffic
	// arrives: the runtime forces a collection every two minutes. One here
	// does the same, so that the set-up's garbage, and whatever heap goal it
	// happened to leave, do not decide the peak RSS: on cluster-hot, without
	// it, the peak was reached in the warm-up and spread 14% over ten runs.
	runtime.GC()

	g := newGen(o, st, tp, stderr)
	defer g.client.CloseIdleConnections()
	g.warm(prof.highRPS)

	span := time.Duration(o.seconds) * time.Second
	if o.trace {
		if err := g.traced(v, prof, span); err != nil {
			return outcome{}, err
		}
	} else {
		var highs []phaseStats
		var sat []float64
		for r := 0; r < rounds; r++ {
			_, high := g.phase("high", 2*r+1, prof.highRPS, span*2/(3*rounds), false)
			highs = append(highs, high)
			sat = append(sat, g.saturate(2*r+2, span/(3*rounds)))
		}
		v["throughput_per_s"] = median(sat)
		v["p50_ms.high"] = roundsP50(highs)
		v["setup_s"] = median(setups)
		v["peak_rss_mb"] = maxRSSMB()
	}

	ref := reference(o.workload)
	wrong := g.check.verify(ref, g.ks.table)
	ref.Drain()
	if wrong > 0 {
		fmt.Fprintf(stderr, "snailsperf: %d responses differ from the reference\n", wrong)
	}
	out := outcome{
		attempted: g.sent,
		failed:    min(g.failed+wrong, g.sent),
		values:    v,
		rates:     map[string]float64{"low": prof.lowRPS, "high": prof.highRPS},
		behind:    g.behind > 0,
		relay:     tp.relaySettings(),
	}
	v["ok_ratio"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	late := sorted(g.late)
	v["loadgen.late_ms.p50"], v["loadgen.late_ms.p99"] = quantile(late, 0.5), quantile(late, 0.99)
	v["loadgen.behind"] = float64(g.behind)
	return out, nil
}

// gen drives one serving workload's traffic and checks its answers.
type gen struct {
	st     *stack
	taps   *taps
	client *http.Client
	ks     keyspace
	check  *bodyCheck
	seed   int64
	log    io.Writer
	bufs   [conns]bytes.Buffer // one response buffer per connection worker

	sent, failed int       // requests sent, and those that failed
	behind       int       // phases whose generator lateness p99 passed lateLimit
	late         []float64 // generator lateness of every request it slept for, ms
}

func newGen(o options, st *stack, tp *taps, log io.Writer) *gen {
	g := &gen{st: st, taps: tp, client: loadClient(), seed: o.seed, log: log}
	if o.workload == "cluster-hot" {
		g.ks = hotKeys(populationSeed)
		g.check = newBodyCheck(len(g.ks.table), func(int) bool { return true }, true)
	} else {
		g.ks = wideKeys(populationSeed)
		g.check = newBodyCheck(len(g.ks.table), sampleKeys(o.seed, wideSample), false)
	}
	return g
}

// loadClient is the load generator's HTTP client: at most conns
// connections, each kept alive across requests.
func loadClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// settle is how long the warm-up offers the high rate before anything is
// timed. Until the caches, the heap and the collector's pacing have settled
// under load, the first seconds at that rate run markedly slower than the
// rest.
const settle = 3 * time.Second

// warm sends the key space's warm-up keys closed-loop, then offers the high
// rate for settle, before anything is timed.
func (g *gen) warm(high float64) {
	keys := g.ks.warmKeys()
	ps := summarize(drive(make([]time.Duration, len(keys)), conns, func(w, i int) (int, error) {
		return g.send(w, keys[i], 0)
	}))
	g.sent += ps.n
	g.failed += ps.failed
	fmt.Fprintf(g.log, "snailsperf: warm-up   n=%d failed=%d\n", ps.n, ps.failed)
	g.phase("settle", 0, high, settle, false)
}

// phase offers Poisson traffic at rate for span and returns every request's
// shot. k individualises the phase's seed, so each phase of a run draws its
// own keys and schedule. With traced set the timing wrappers run and each
// request carries its index as its wire trace ID.
func (g *gen) phase(name string, k int, rate float64, span time.Duration, traced bool) ([]shot, phaseStats) {
	due := schedule(g.seed*1_000_003+int64(k), rate, span)
	keys := g.ks.keys(g.seed*1_000_033+int64(k), len(due))
	if traced {
		g.taps.start(len(due))
	}
	tracing.Store(traced)
	shots := drive(due, conns, func(w, i int) (int, error) {
		var id uint64
		if traced {
			id = uint64(i) + 1
		}
		return g.send(w, keys[i], id)
	})
	tracing.Store(false)
	ps := summarize(shots)
	g.sent += ps.n
	g.failed += ps.failed
	g.late = append(g.late, ps.late...)
	behind := ps.lateP99() > ms(lateLimit)
	if behind {
		g.behind++
	}
	fmt.Fprintf(g.log, "snailsperf: %-9s rate=%.0f/s n=%d failed=%d p50=%.3fms p99=%.3fms late_p99=%.3fms behind=%v\n",
		name, rate, ps.n, ps.failed, ps.p50(), ps.p99(), ps.lateP99(), behind)
	return shots, ps
}

// saturationBatch is how many requests saturate sends between clock checks.
const saturationBatch = 2000

// saturate sends requests closed-loop, every connection busy all the time,
// until budget is spent, and returns the completion rate: the highest rate
// the stack sustains over the generator's connections. Offered any faster,
// an open loop builds a backlog without bound.
func (g *gen) saturate(k int, budget time.Duration) float64 {
	start := time.Now()
	n, failed := 0, 0
	for b := 0; n == 0 || time.Since(start) < budget; b++ {
		keys := g.ks.keys(g.seed*1_000_037+int64(k)*1_009+int64(b), saturationBatch)
		ps := summarize(drive(make([]time.Duration, len(keys)), conns, func(w, i int) (int, error) {
			return g.send(w, keys[i], 0)
		}))
		n += ps.n
		failed += ps.failed
	}
	rate := float64(n) / time.Since(start).Seconds()
	g.sent += n
	g.failed += failed
	fmt.Fprintf(g.log, "snailsperf: saturate  n=%d failed=%d rate=%.0f/s\n", n, failed, rate)
	return rate
}

// send posts one request on worker w's connection and checks a 200 answer.
// A non-zero id goes out as the request's wire trace ID.
func (g *gen) send(w int, key int32, id uint64) (int, error) {
	r := &g.ks.table[key]
	req, err := http.NewRequest(http.MethodPost, g.st.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	trace.Inject(req.Header, id)
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf := &g.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK {
		g.check.observe(int(key), buf.Bytes(), resp.Header)
	}
	return resp.StatusCode, nil
}

// traced runs the per-layer phases: the low rate with the wrappers on, for
// its latency and the HTTP residual on the idle path; the high rate with
// them off, for its tail and as the overhead reference; and the high rate
// with them on, with every counter read before and after.
func (g *gen) traced(v map[string]float64, prof serveProfile, span time.Duration) error {
	// A forced collection first, so that the low rate measures the idle
	// path rather than whichever collection happened to fall in it.
	runtime.GC()
	shots, low := g.phase("low+tap", 1, prof.lowRPS, span/4, true)
	g.residuals(v, shots)
	_, ref := g.phase("high", 2, prof.highRPS, span*3/8, false)
	v["p50_ms.low"], v["p99_ms.low"], v["p99_ms.high"] = low.p50(), low.p99(), ref.p99()
	a, err := g.tally()
	if err != nil {
		return err
	}
	shots, hi := g.phase("high+tap", 3, prof.highRPS, span*3/8, true)
	b, err := g.tally()
	if err != nil {
		return err
	}
	if err := g.serveLayers(v, shots, a, b); err != nil {
		return err
	}
	v["trace.overhead_ms"] = hi.p50() - ref.p50()
	v["trace.overhead_share"] = ratio(hi.p50()-ref.p50(), ref.p50())
	return nil
}

// stack is the serving system under test, in this process on loopback.
type stack struct {
	base       string   // where the load goes: the server, or the router
	serverURLs []string // every server's base URL
	routerURL  string   // empty for a single server
	stops      []func()
}

// close stops the stack, front end first.
func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	s.stops = nil
}

// buildStack starts the workload's serving stack in its production
// configuration — zero-value server and router configs, logs discarded —
// and returns once it is ready: every database, question set, classifier
// and model built (Preload), and in a cluster every shard probed healthy.
// With tp set, the traced run's wrappers go around every server, the
// router, its transport and the decode backends.
func buildStack(workload string, tp *taps) (*stack, error) {
	n := 1
	if workload == "cluster-hot" {
		n = 2
	}
	st := &stack{}
	var shards []cluster.Shard
	for i := 0; i < n; i++ {
		cfg := server.Config{Logger: quiet}
		if n > 1 {
			cfg.ShardID = "shard-" + strconv.Itoa(i)
		}
		if tp != nil {
			cfg.Backends = tp.backends()
		}
		srv := server.New(cfg)
		srv.Preload()
		var h http.Handler = srv
		if tp != nil {
			h = tp.wrapServer(srv)
		}
		url, stop, err := listen(h)
		if err != nil {
			srv.Drain()
			st.close()
			return nil, err
		}
		st.stops = append(st.stops, func() { stop(); srv.Drain() })
		st.serverURLs = append(st.serverURLs, url)
		shards = append(shards, cluster.Shard{Name: cfg.ShardID, Base: url})
	}
	st.base = st.serverURLs[0]
	if n == 1 {
		return st, nil
	}
	rcfg := cluster.Config{Shards: shards, Universe: cluster.DefaultUniverse(), Logger: quiet}
	if tp != nil {
		rcfg.Transport = tp.transport()
	}
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = rt
	if tp != nil {
		h = tp.wrapRouter(rt)
	}
	url, stop, err := listen(h)
	if err != nil {
		rt.Close()
		st.close()
		return nil, err
	}
	st.stops = append(st.stops, func() { stop(); rt.Drain() })
	st.base, st.routerURL = url, url
	deadline := time.Now().Add(10 * time.Second)
	for rt.AliveShards() < n {
		if time.Now().After(deadline) {
			st.close()
			return nil, fmt.Errorf("cluster: %d of %d shards healthy after 10s", rt.AliveShards(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

// listen serves h on a fresh loopback port. It returns the base URL and a
// function that closes the listener and every connection, then waits for
// the serving goroutine to return.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

// reference builds the program a workload's answers are checked against: an
// uncached server for serve-wide, so every reference answer is computed
// afresh, and a default single server for cluster-hot, since a cluster must
// answer exactly as one process does.
func reference(workload string) *server.Server {
	cfg := server.Config{Logger: quiet}
	if workload == "serve-wide" {
		cfg.CacheEntries = -1
	}
	return server.New(cfg)
}

// setupProbe builds the workload's serving stack in this fresh process and
// reports how long that took from the process start.
func setupProbe(o options, stdout io.Writer) error {
	st, err := buildStack(o.workload, nil)
	if err != nil {
		return err
	}
	setup := secondsSince(processStart)
	st.close()
	return json.NewEncoder(stdout).Encode(map[string]float64{"setup_s": setup})
}

// probeSetup runs n set-up probes, one after another, and returns their
// set-up times.
func probeSetup(workload string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		var p struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := runChild([]string{"--workload", workload, "--probe", "setup"}, &p); err != nil {
			return nil, err
		}
		out = append(out, p.SetupS)
	}
	return out, nil
}

// childTimeout bounds one probe process.
const childTimeout = 90 * time.Second

// runChild runs this binary again with args, waits for it to exit, and
// decodes the JSON object it printed last into v.
func runChild(args []string, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("probe %q: %w", args, err)
	}
	last := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	if err := json.Unmarshal(last, v); err != nil {
		return fmt.Errorf("probe %q: %w", args, err)
	}
	return nil
}
