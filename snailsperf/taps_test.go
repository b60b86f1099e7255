package main

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/snails-bench/snails/internal/server"
)

// TestServeLayersFailsOnAnAbsentSeries feeds serveLayers a real server's
// exposition, whole and then without one series it reads.
func TestServeLayersFailsOnAnAbsentSeries(t *testing.T) {
	srv := server.New(server.Config{Logger: quiet})
	defer srv.Drain()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	whole := parseExposition(rec.Body.String())

	g := &gen{taps: &taps{}}
	if err := g.serveLayers(map[string]float64{}, nil, tally{prom: whole}, tally{prom: whole}); err != nil {
		t.Fatalf("a whole exposition: %v", err)
	}

	const series = `snails_stage_duration_seconds_sum{stage="sql_exec"}`
	if _, ok := whole[series]; !ok {
		t.Fatalf("the server exports no %s", series)
	}
	missing := maps.Clone(whole)
	delete(missing, series)
	err := g.serveLayers(map[string]float64{}, nil, tally{prom: missing}, tally{prom: missing})
	if err == nil || !strings.Contains(err.Error(), series) {
		t.Fatalf("an exposition without %s gave %v", series, err)
	}
}

func TestCheckExercisedFailsOnAZeroLayer(t *testing.T) {
	v := map[string]float64{}
	for _, name := range exercised["cluster-hot"] {
		v[name] = 1
	}
	if err := checkExercised("cluster-hot", v); err != nil {
		t.Fatalf("every layer above 0: %v", err)
	}
	v["cluster.relay_rtt_ms.p50"] = 0
	if err := checkExercised("cluster-hot", v); err == nil || !strings.Contains(err.Error(), "cluster.relay_rtt_ms.p50") {
		t.Fatalf("a relay that read 0 gave %v", err)
	}
}
