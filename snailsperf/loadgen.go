package main

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// schedule returns the send offsets of a Poisson arrival process at rate
// requests per second over span: exponentially distributed gaps drawn from
// seed, so the same seed gives the same schedule.
func schedule(seed int64, rate float64, span time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, at)
	}
}

// shot is the client's record of one request.
type shot struct {
	// service runs from the request's send to the end of its response.
	// latency is timed from the request's due time: see replay.
	service, latency time.Duration
	// late is how long past its due time the sender woke, when it slept
	// until then: the generator's own lateness.
	late   time.Duration
	slept  bool
	status int
	err    error
}

// drive is the open-loop load generator. Request i falls due at
// start+due[i] whatever became of the requests before it; conns workers,
// one connection each, take requests in due order and send each with send.
// A worker whose connection is free before the next request falls due
// sleeps until then.
func drive(due []time.Duration, conns int, send func(worker, i int) (int, error)) []shot {
	shots := make([]shot, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				s := &shots[i]
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
					s.late, s.slept = time.Since(at), true
				}
				sent := time.Now()
				s.status, s.err = send(w, i)
				s.service = time.Since(sent)
			}
		}()
	}
	wg.Wait()
	replay(due, shots, conns)
	return shots
}

// replay times every request from its due time as a punctual generator
// would have seen it: the requests, in due order, go to the first of conns
// connections to come free, no earlier than they fall due, and each holds
// its connection for the service time measured. A stalled response holds
// its connection, so the requests that fall due behind it wait, and their
// latency carries the wait. A sender that woke late holds nothing: the
// timer's overshoot is the generator's, reported apart as lateness, and
// never reaches a later request's latency.
func replay(due []time.Duration, shots []shot, conns int) {
	free := make([]time.Duration, conns) // when each connection comes free
	for i := range shots {
		c := 0
		for j := range free {
			if free[j] < free[c] {
				c = j
			}
		}
		free[c] = max(due[i], free[c]) + shots[i].service
		shots[i].latency = free[c] - due[i]
	}
}

// lateLimit is the generator lateness p99 past which a phase counts as
// behind its schedule: beyond it the generator, not the server, shapes the
// arrivals.
const lateLimit = 5 * time.Millisecond

// phaseStats condenses the shots of one phase.
type phaseStats struct {
	n, failed int
	lat       []float64 // latency of every request, in due order, ms
	late      []float64 // generator lateness of the requests it slept for, ms
}

func summarize(shots []shot) phaseStats {
	ps := phaseStats{n: len(shots), lat: make([]float64, 0, len(shots))}
	for _, s := range shots {
		if s.err != nil || s.status != http.StatusOK {
			ps.failed++
		}
		ps.lat = append(ps.lat, ms(s.latency))
		if s.slept {
			ps.late = append(ps.late, ms(s.late))
		}
	}
	return ps
}

func (ps phaseStats) p50() float64 { return median(ps.lat) }

func (ps phaseStats) p99() float64 { return quantile(sorted(ps.lat), 0.99) }

func (ps phaseStats) lateP99() float64 { return quantile(sorted(ps.late), 0.99) }

// roundsP50 is the median of the phases' p50s: a few slow seconds in one
// phase move it less than they move the p50 of all the phases' requests.
func roundsP50(phases []phaseStats) float64 {
	p50s := make([]float64, len(phases))
	for i, ps := range phases {
		p50s[i] = ps.p50()
	}
	return median(p50s)
}

// pooledP99 is the p99 of every request of the phases. Tail latency comes
// from the collections that fall in a phase, one in some phases and none in
// others, so it is taken over all of them at once.
func pooledP99(phases []phaseStats) float64 {
	var lat []float64
	for _, ps := range phases {
		lat = append(lat, ps.lat...)
	}
	return quantile(sorted(lat), 0.99)
}
