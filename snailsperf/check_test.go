package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportCheckCatchesOneCorruptedByte(t *testing.T) {
	want := []byte("\n=== Table 1 ===\nRegular Low\n\n")
	if ok, diff := compareReport(want, want); !ok {
		t.Fatalf("identical reports differ: %s", diff)
	}
	bad := bytes.Clone(want)
	bad[18] ^= 1
	ok, diff := compareReport(bad, want)
	if ok || !strings.HasPrefix(diff, "line 3:") {
		t.Fatalf("a corrupted byte gave ok=%v diff=%q", ok, diff)
	}
}

func TestExpectedReportDropsOnlyTheTimingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	if err := os.WriteFile(path, []byte("a\nb\n\n(report generated in 5.1s)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := expectedReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a\nb\n\n" {
		t.Fatalf("got %q", got)
	}
}

// echo stands in for the reference program: its answer is derived from the
// request alone.
var echo = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	fmt.Fprintf(w, "%s %s\n", r.URL.Path, body)
})

var table = []request{
	{path: "/v1/infer", body: []byte(`{"question_id":1}`)},
	{path: "/v1/link", body: []byte(`{"gold_sql":"SELECT 1"}`)},
}

func corrupt(b []byte) []byte {
	b = bytes.Clone(b)
	b[0] ^= 1
	return b
}

func right(key int) []byte { return serveDirect(echo, table[key]) }

func every(int) bool { return true }

func TestReferenceCheckCatchesOneCorruptedBody(t *testing.T) {
	none := http.Header{}

	c := newBodyCheck(len(table), every, false)
	c.observe(0, right(0), none)
	c.observe(1, right(1), none)
	c.observe(1, right(1), none)
	if bad := c.verify(echo, table); bad != 0 {
		t.Fatalf("correct bodies counted %d wrong", bad)
	}

	c = newBodyCheck(len(table), every, false)
	c.observe(0, right(0), none)
	c.observe(0, corrupt(right(0)), none) // a later answer differs from the first
	if bad := c.verify(echo, table); bad != 1 {
		t.Fatalf("one corrupted later body counted %d wrong, want 1", bad)
	}

	c = newBodyCheck(len(table), every, false)
	c.observe(1, corrupt(right(1)), none) // the first answer is wrong
	if bad := c.verify(echo, table); bad != 1 {
		t.Fatalf("one corrupted first body counted %d wrong, want 1", bad)
	}
}

func TestClusterCheckCatchesOneCorruptedBody(t *testing.T) {
	shard := http.Header{"X-Snails-Shard": {"shard-0"}}

	c := newBodyCheck(len(table), every, true)
	c.observe(0, right(0), shard)
	c.observe(1, right(1), shard)
	if bad := c.verify(echo, table); bad != 0 {
		t.Fatalf("correct bodies counted %d wrong", bad)
	}

	c = newBodyCheck(len(table), every, true)
	c.observe(0, right(0), shard)
	c.observe(1, corrupt(right(1)), shard)
	if bad := c.verify(echo, table); bad != 1 {
		t.Fatalf("one corrupted body counted %d wrong, want 1", bad)
	}

	c = newBodyCheck(len(table), every, true)
	c.observe(0, right(0), http.Header{}) // no shard named
	if bad := c.verify(echo, table); bad != 1 {
		t.Fatalf("a response naming no shard counted %d wrong, want 1", bad)
	}
}
