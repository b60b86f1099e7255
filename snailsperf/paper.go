package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
	"github.com/snails-bench/snails/internal/sqlexec"
)

// sections are the report's sections in the order experiments.Report
// writes them. The traced run times each call. The six named ones are the
// report's costliest and get a metric each; the others share "rest". The
// report check guards the order: a traced report that differs from
// report.txt fails the run.
var sections = []struct {
	metric string
	write  func(io.Writer)
}{
	{"rest", experiments.WriteTable1},
	{"rest", experiments.WriteFigure2},
	{"figure3", experiments.WriteFigure3},
	{"section22", experiments.WriteSection22},
	{"rest", experiments.WriteTable2},
	{"rest", experiments.WriteTable3},
	{"rest", experiments.WriteTable4},
	{"rest", experiments.WriteFigure5},
	{"table5", experiments.WriteTable5},
	{"figure8", experiments.WriteFigure8},
	{"rest", experiments.WriteFigure9},
	{"rest", experiments.WriteFigure10},
	{"rest", experiments.WriteFigure11},
	{"rest", experiments.WriteFigure12},
	{"rest", experiments.WriteFigure13},
	{"rest", experiments.WriteFigure26},
	{"rest", experiments.WriteFigure27},
	{"rest", experiments.WriteFigure28},
	{"rest", experiments.WriteFigure30},
	{"correlations", experiments.WriteCorrelations},
	{"rest", experiments.WriteFigures48to51},
	{"ablations", experiments.WriteAblations},
}

// minRegenerations is how many regenerations a paper run makes at least,
// whatever --seconds says, so that its medians rest on several samples.
const minRegenerations = 3

// paperResult is what one fresh-process regeneration reports to its parent.
type paperResult struct {
	SetupS  float64            `json:"setup_s"` // process start until databases and questions are built
	SweepS  float64            `json:"sweep_s"` // the cold full-grid sweep
	Cells   int                `json:"cells"`
	ReportS float64            `json:"report_s"` // after set-up: the sweep and every section
	RSSMB   float64            `json:"rss_mb"`
	Match   bool               `json:"match"`
	Diff    string             `json:"diff,omitempty"`
	Layers  map[string]float64 `json:"layers,omitempty"` // traced regenerations only
}

// paperProbe regenerates the whole report in this fresh process — set-up,
// the cold sweep, every section — and checks it against the committed one.
func paperProbe(o options, stdout io.Writer) error {
	want, err := expectedReport(o.expect)
	if err != nil {
		return err
	}
	layers := map[string]float64{}
	buildInputs(layers)
	res := paperResult{SetupS: secondsSince(processStart)}

	start := time.Now()
	rt0 := readRuntime()
	if o.trace {
		// Trained on its own first, the classifier the corpus scans use is
		// timed apart from the sections that would otherwise train it.
		timed(layers, "naturalness.train_s", func() { experiments.TrainedClassifier() })
	}
	sql0, be0 := sqlexec.Stats(), backend.ReadStats()
	var sweep *experiments.Sweep
	timed(layers, "experiments.sweep_s", func() { sweep = experiments.Run() })
	sql1, be1 := sqlexec.Stats(), backend.ReadStats()
	var buf bytes.Buffer
	if o.trace {
		for _, s := range sections {
			t := time.Now()
			s.write(&buf)
			layers["experiments.section_s."+s.metric] += secondsSince(t)
		}
	} else {
		experiments.Report(&buf)
	}
	res.ReportS = secondsSince(start)
	rt1 := readRuntime()
	res.SweepS, res.Cells = layers["experiments.sweep_s"], sweep.Stats.Cells
	buf.WriteByte('\n') // report.txt has a blank line before its timing line
	res.Match, res.Diff = compareReport(buf.Bytes(), want)
	res.RSSMB = maxRSSMB()
	if o.trace {
		sweepLayers(layers, sweep, sql0, sql1, be0, be1)
		runtimeLayers(layers, rt0, rt1, time.Duration(res.ReportS*float64(time.Second)))
		res.Layers = layers
	}
	return json.NewEncoder(stdout).Encode(res)
}

// buildInputs builds what every workload's process builds first, one module
// at a time — the benchmark databases, then their question sets — and times
// each.
func buildInputs(v map[string]float64) {
	timed(v, "datasets.build_s", func() { datasets.All() })
	timed(v, "nlq.generate_s", func() {
		for _, db := range datasets.Names {
			experiments.Questions(db)
		}
	})
}

// sweepLayers reads the pipeline layers of the cold sweep: calls and busy
// time from the stage spans it records (Stats.Stages), outcome ratios from
// its cells, and the executor's and backends' tallies across it.
func sweepLayers(v map[string]float64, sw *experiments.Sweep, sql0, sql1 sqlexec.ExecStats, be0, be1 backend.Stats) {
	for _, st := range sw.Stats.Stages {
		for _, m := range stageLayers {
			if st.Stage == m.stage {
				v[m.layer+".calls"] = float64(st.Count)
				v[m.layer+".busy_s"] = st.TotalSeconds
			}
		}
	}
	var parsed, correct float64
	for i := range sw.Cells {
		if sw.Cells[i].ParseOK {
			parsed++
		}
		if sw.Cells[i].ExecCorrect {
			correct++
		}
	}
	n := float64(len(sw.Cells))
	v["sqlparse.parse.ok_ratio"] = ratio(parsed, n)
	v["evalx.match.yes_ratio"] = ratio(correct, n)
	q := float64(sql1.Queries - sql0.Queries)
	pf := float64(sql1.ParseFailures - sql0.ParseFailures)
	ef := float64(sql1.ExecFailures - sql0.ExecFailures)
	v["sqlexec.exec.ok_ratio"] = ratio(q-pf-ef, q-pf)
	v["backend.infer.errors"] = float64(be1.RequestsError - be0.RequestsError)
}

// runPaper regenerates the report in fresh processes, one after another,
// until --seconds is spent and at least minRegenerations have run. A traced
// run alternates untraced and traced regenerations, so that the difference
// of their report times is the tracing overhead.
func runPaper(o options, stderr io.Writer) (outcome, error) {
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var plain, traced []paperResult
	for i := 0; ; i++ {
		enough := len(plain) >= minRegenerations
		if o.trace {
			enough = len(plain) >= 1 && len(traced) >= 1
		}
		if enough && !time.Now().Before(deadline) {
			break
		}
		withTrace := o.trace && i%2 == 1
		args := []string{"--workload", "paper", "--probe", "paper", "--expect", o.expect}
		if withTrace {
			args = append(args, "--trace", "1")
		}
		var p paperResult
		if err := runChild(args, &p); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(stderr, "snailsperf: regeneration traced=%v setup=%.3fs sweep=%.3fs report=%.3fs match=%v\n",
			withTrace, p.SetupS, p.SweepS, p.ReportS, p.Match)
		if !p.Match {
			fmt.Fprintf(stderr, "snailsperf: the report differs from %s: %s\n", o.expect, p.Diff)
		}
		if withTrace {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	out := outcome{attempted: len(plain) + len(traced), values: map[string]float64{}}
	for _, p := range slices.Concat(plain, traced) {
		if !p.Match {
			out.failed++
		}
	}
	v := out.values
	col := func(ps []paperResult, f func(paperResult) float64) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return xs
	}
	reportS := func(p paperResult) float64 { return p.ReportS }
	if !o.trace {
		v["setup_s"] = median(col(plain, func(p paperResult) float64 { return p.SetupS }))
		v["peak_rss_mb"] = median(col(plain, func(p paperResult) float64 { return p.RSSMB }))
		v["ok_ratio"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
		v["throughput_per_s"] = median(col(plain, func(p paperResult) float64 { return float64(p.Cells) / p.SweepS }))
		v["p50_ms.high"] = median(col(plain, func(p paperResult) float64 { return 1000 * p.ReportS }))
		return out, nil
	}

	for name := range traced[0].Layers {
		v[name] = median(col(traced, func(p paperResult) float64 { return p.Layers[name] }))
	}
	plainS, tracedS := median(col(plain, reportS)), median(col(traced, reportS))
	v["trace.overhead_ms"] = 1000 * (tracedS - plainS)
	v["trace.overhead_share"] = ratio(tracedS-plainS, plainS)
	// What the report's wall time spends outside every timed layer: the
	// training, the sweep and the sections cover the rest.
	residual := median(col(traced, func(p paperResult) float64 {
		spent := p.Layers["naturalness.train_s"] + p.Layers["experiments.sweep_s"]
		for name, s := range p.Layers {
			if strings.HasPrefix(name, "experiments.section_s.") {
				spent += s
			}
		}
		return p.ReportS - spent
	}))
	v["trace.residual_ms"] = 1000 * residual
	v["trace.residual_share"] = ratio(residual, tracedS)
	return out, nil
}
