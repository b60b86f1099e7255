package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
)

// bodyCheck verifies a serving workload's response bodies. The first body
// seen for each sampled key is kept; every later body for that key must
// equal it byte for byte, and after the run each kept body must equal the
// reference program's answer to the same request. With shardHeader set (a
// cluster), every response must also name the shard that served it.
type bodyCheck struct {
	sample      func(key int) bool
	shardHeader bool
	first       []atomic.Pointer[[]byte]
	seen        []atomic.Int64
	bad         atomic.Int64
}

func newBodyCheck(keys int, sample func(int) bool, shardHeader bool) *bodyCheck {
	return &bodyCheck{
		sample:      sample,
		shardHeader: shardHeader,
		first:       make([]atomic.Pointer[[]byte], keys),
		seen:        make([]atomic.Int64, keys),
	}
}

// observe checks one 200 answer to key. It is safe for concurrent use.
func (c *bodyCheck) observe(key int, body []byte, h http.Header) {
	if c.shardHeader && h.Get("X-Snails-Shard") == "" {
		c.bad.Add(1)
		return
	}
	if !c.sample(key) {
		return
	}
	c.seen[key].Add(1)
	kept := c.first[key].Load()
	if kept == nil {
		b := bytes.Clone(body)
		if c.first[key].CompareAndSwap(nil, &b) {
			return
		}
		kept = c.first[key].Load()
	}
	if !bytes.Equal(*kept, body) {
		c.bad.Add(1)
	}
}

// verify asks ref for the answer to every kept key and returns how many
// responses were wrong: those observe already caught, plus every response
// to a key whose kept body differs from the reference's.
func (c *bodyCheck) verify(ref http.Handler, table []request) int {
	bad := int(c.bad.Load())
	for key := range c.first {
		kept := c.first[key].Load()
		if kept != nil && !bytes.Equal(*kept, serveDirect(ref, table[key])) {
			bad += int(c.seen[key].Load())
		}
	}
	return bad
}

// serveDirect calls h.ServeHTTP in this process, with no network hop, and
// returns the body it wrote.
func serveDirect(h http.Handler, r request) []byte {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec.Body.Bytes()
}

// sampleKeys is a seeded sample of one key in n.
func sampleKeys(seed int64, n int) func(int) bool {
	offset := int(uint64(seed) % uint64(n))
	return func(key int) bool { return (key+offset)%n == 0 }
}

// timingPrefix starts the one line of report.txt that differs between
// runs: how long the report took.
const timingPrefix = "(report generated in "

// expectedReport reads the committed report without its timing line.
func expectedReport(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the expected report: %w", err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(timingPrefix)) {
			out = append(out, line...)
		}
	}
	return out, nil
}

// compareReport reports whether got equals want byte for byte and, if not,
// the first line where they differ.
func compareReport(got, want []byte) (bool, string) {
	if bytes.Equal(got, want) {
		return true, ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return false, fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return false, "the reports differ"
}
