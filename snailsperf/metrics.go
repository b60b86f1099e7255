package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The two catalogues
// below are the benchmark's contract: BENCHMARK.json at the repository root
// declares the same names and units in the same order, and a test keeps the
// two in step.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run reports. Every workload reports
// all of them; README.md defines each one per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"throughput_per_s", "1/s"},
	{"p50_ms.high", "ms"},
}

// perLayer are the metrics a traced run reports. A layer the workload does
// not exercise reads 0.
var perLayer = []metricSpec{
	{"datasets.build_s", "s"},
	{"nlq.generate_s", "s"},
	{"naturalness.train_s", "s"},
	{"experiments.sweep_s", "s"},
	{"experiments.section_s.table5", "s"},
	{"experiments.section_s.figure3", "s"},
	{"experiments.section_s.section22", "s"},
	{"experiments.section_s.figure8", "s"},
	{"experiments.section_s.correlations", "s"},
	{"experiments.section_s.ablations", "s"},
	{"experiments.section_s.rest", "s"},
	{"schema.render.calls", "count"},
	{"schema.render.busy_s", "s"},
	{"backend.infer.calls", "count"},
	{"backend.infer.busy_s", "s"},
	{"backend.infer.errors", "count"},
	{"sqlparse.parse.calls", "count"},
	{"sqlparse.parse.busy_s", "s"},
	{"sqlparse.parse.ok_ratio", "ratio"},
	{"sqlexec.exec.calls", "count"},
	{"sqlexec.exec.busy_s", "s"},
	{"sqlexec.exec.ok_ratio", "ratio"},
	{"evalx.match.calls", "count"},
	{"evalx.match.busy_s", "s"},
	{"evalx.match.yes_ratio", "ratio"},
	{"memo.response.hit_ratio", "ratio"},
	{"memo.gold.hit_ratio", "ratio"},
	{"memo.pred.hit_ratio", "ratio"},
	{"memo.response.evictions", "count"},
	{"memo.coalesced", "count"},
	{"server.handler_ms.p50", "ms"},
	{"server.handler_ms.p99", "ms"},
	{"server.busy_s.infer", "s"},
	{"server.busy_s.link", "s"},
	{"server.busy_s.classify", "s"},
	{"server.busy_s.modify", "s"},
	{"server.batch.mean_size", "count"},
	{"server.rejected", "count"},
	{"p50_ms.low", "ms"},
	{"p99_ms.low", "ms"},
	{"p99_ms.high", "ms"},
	{"http.residual_ms.p50", "ms"},
	{"http.residual_ms.p99", "ms"},
	{"cluster.router_ms.p50", "ms"},
	{"cluster.router_ms.p99", "ms"},
	{"cluster.relay_rtt_ms.p50", "ms"},
	{"cluster.overhead_ms.p50", "ms"},
	{"cluster.retries", "count"},
	{"cluster.shard_skew", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_live_mb", "MB"},
	{"runtime.alloc_mb_per_s", "MB/s"},
	{"loadgen.late_ms.p50", "ms"},
	{"loadgen.late_ms.p99", "ms"},
	{"loadgen.behind", "count"},
	{"trace.residual_ms", "ms"},
	{"trace.residual_share", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// stageLayers maps the pipeline's trace stages to the layers they time.
var stageLayers = []struct{ stage, layer string }{
	{"prompt_render", "schema.render"},
	{"backend_attempt", "backend.infer"},
	{"sql_parse", "sqlparse.parse"},
	{"sql_exec", "sqlexec.exec"},
	{"match", "evalx.match"},
}

// exercised names, per workload, the per-layer metrics its traced run must
// read above 0: the layers the workload is there to exercise. A 0 among
// them means a stage, series or hook the benchmark reads by name has
// drifted, not that the layer did no work, so the run fails.
var exercised = map[string][]string{
	"paper": {
		"naturalness.train_s", "experiments.sweep_s", "experiments.section_s.table5",
		"schema.render.calls", "backend.infer.calls", "sqlparse.parse.calls",
		"sqlexec.exec.calls", "evalx.match.calls",
	},
	"serve-wide": {
		"schema.render.calls", "backend.infer.calls", "sqlparse.parse.calls",
		"sqlexec.exec.calls", "evalx.match.calls", "server.handler_ms.p50",
		"memo.response.evictions",
	},
	"cluster-hot": {
		"server.handler_ms.p50", "cluster.router_ms.p50", "cluster.relay_rtt_ms.p50",
		"memo.response.hit_ratio",
	},
}

// checkExercised fails when a layer the workload must exercise reads 0.
func checkExercised(workload string, v map[string]float64) error {
	var zero []string
	for _, name := range exercised[workload] {
		if v[name] == 0 {
			zero = append(zero, name)
		}
	}
	if len(zero) > 0 {
		return fmt.Errorf("%s: layers it exercises read 0: %s", workload, strings.Join(zero, ", "))
	}
	return nil
}

// quantile reads the q-quantile off ascending samples by nearest rank,
// under the benchmark's percentile rule: a percentile counts only when at
// least ten samples lie beyond it, so q drops to the highest percentile the
// sample count supports — never below the median, which is all that ten
// samples or fewer support.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if top := n - 11; k > top {
		k = top
	}
	if mid := (n - 1) / 2; k < mid {
		k = mid
	}
	return sorted[k]
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// ratio is a/b, or 0 when b is 0: the layer did no such work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// timed runs f and records its wall time, in seconds, as v[name].
func timed(v map[string]float64, name string, f func()) {
	t := time.Now()
	f()
	v[name] = secondsSince(t)
}

const mib = 1 << 20

// maxRSSMB is this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
