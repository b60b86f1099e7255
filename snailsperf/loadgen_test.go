package main

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 1000, time.Second)
	if !slices.Equal(a, schedule(7, 1000, time.Second)) {
		t.Fatal("the same seed gave two schedules")
	}
	if slices.Equal(a, schedule(8, 1000, time.Second)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n < 900 || n > 1100 {
		t.Fatalf("1000/s over one second gave %d arrivals", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= time.Second {
		t.Fatal("arrivals are not ascending within the span")
	}
}

func TestStalledServerInflatesLaterLatencies(t *testing.T) {
	// One request falls due every millisecond, and the server stalls for
	// 50 ms on request 5 while both connections wait on it. Timed from their
	// due times, the requests that fell due during the stall carry what was
	// left of it; timed from when the generator finally sent them, they
	// would look fast.
	const stall = 50 * time.Millisecond
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	var server sync.Mutex
	shots := drive(due, conns, func(_, i int) (int, error) {
		server.Lock()
		defer server.Unlock()
		if i == 5 {
			time.Sleep(stall)
		}
		return 200, nil
	})
	for i := 6; i < 20; i++ {
		if want := stall - time.Duration(i-5)*time.Millisecond; shots[i].latency < want {
			t.Errorf("request %d: latency %v, want at least %v", i, shots[i].latency, want)
		}
		if i > 6 && shots[i].slept {
			t.Errorf("request %d: the wait for a stalled connection counted as generator lateness", i)
		}
	}
}

func TestReplayQueuesBehindHeldConnections(t *testing.T) {
	// Two connections, one request due every millisecond, each served in
	// 100µs except requests 2 and 3, which hold both connections for 10 ms.
	// The requests after them queue for the first connection to come free,
	// and each carries its wait from its due time.
	due := make([]time.Duration, 8)
	shots := make([]shot, len(due))
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
		shots[i].service = 100 * time.Microsecond
	}
	shots[2].service, shots[3].service = 10*time.Millisecond, 10*time.Millisecond
	replay(due, shots, conns)
	want := []time.Duration{100, 100, 10000, 10000, 8100, 7200, 6300, 5400}
	for i, w := range want {
		if got := shots[i].latency; got != w*time.Microsecond {
			t.Errorf("request %d: latency %v, want %v", i, got, w*time.Microsecond)
		}
	}
}

func TestQuantileRule(t *testing.T) {
	ranks := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{1000, 0.99, 990},  // p99: exactly ten samples beyond it
		{2000, 0.99, 1980}, // p99 with room to spare
		{500, 0.99, 490},   // p99 unsupported: p98 has ten beyond it
		{100, 0.99, 90},
		{15, 0.99, 8}, // the highest supported rank is below the median: the median
		{5, 0.99, 3},  // ten samples or fewer support only the median
		{1000, 0.5, 500},
	} {
		if got := quantile(ranks(c.n), c.q); got != c.want {
			t.Errorf("quantile(n=%d, q=%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}
