// Command snailsperf is the repository benchmark. It runs one named
// workload against the SNAILS programs built from this checkout, measures it
// for a fixed time, checks the programs' outputs, and prints one JSON result
// line last on standard output:
//
//	bash snailsperf/run.sh --workload serve-wide --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, taken with the programs in their
// production configuration. --trace 1 reports the per-layer metrics of a
// separate run that times calls into each module from this package. The
// workloads, every metric and the layer map are described in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// processStart stands in for the process start in set-up timings: package
// variables are initialised just before main runs.
var processStart = time.Now()

// quiet receives the servers' and the router's logs. Only warnings pass its
// level check and it discards them, so the canonical request line a server
// promotes to INFO every 256th request costs no write.
var quiet = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))

var workloads = []string{"paper", "serve-wide", "cluster-hot"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// probe makes this process one fresh-process measurement of a parent
	// run: "setup" builds the workload's serving stack, "paper" regenerates
	// the report. A probe prints one JSON object and exits.
	probe  string
	expect string // the committed report a regeneration must reproduce
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fl := flag.NewFlagSet("snailsperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traced int
	fl.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fl.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	fl.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	fl.StringVar(&o.probe, "probe", "", "internal: run one fresh-process probe (setup or paper) and exit")
	fl.StringVar(&o.expect, "expect", "report.txt", "the committed report a regeneration must reproduce, timing line aside")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fl.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fl.Args())
	case !slices.Contains(workloads, o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case traced != 0 && traced != 1:
		return o, errors.New("--trace must be 0 or 1")
	case o.probe != "" && o.probe != "setup" && o.probe != "paper":
		return o, fmt.Errorf("unknown probe %q", o.probe)
	}
	o.trace = traced == 1
	return o, nil
}

func main() {
	slog.SetDefault(quiet)
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snailsperf:", err)
		os.Exit(2)
	}
	switch o.probe {
	case "setup":
		err = setupProbe(o, os.Stdout)
	case "paper":
		err = paperProbe(o, os.Stdout)
	default:
		err = run(o, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snailsperf:", err)
		os.Exit(1)
	}
}

// outcome is what a workload measured: how many operations it attempted,
// how many failed or answered wrongly, the metric values by name, and what
// the stamp records about the run.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	rates             map[string]float64 // frozen offered rates, requests per second
	behind            bool               // the load generator fell behind its schedule
	relay             string             // the traced router's transport settings
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options, stdout, stderr io.Writer) error {
	var out outcome
	var err error
	if o.workload == "paper" {
		out, err = runPaper(o, stderr)
	} else {
		out, err = runServe(o, stderr)
	}
	if err != nil {
		return err
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
		if err := checkExercised(o.workload, out.values); err != nil {
			return err
		}
	}
	res, err := finish(out, specs, o.trace)
	if err != nil {
		return err
	}
	if out.behind {
		fmt.Fprintln(stderr, "snailsperf: warning: the load generator fell behind its schedule in some phase")
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]stamp{"stamp": newStamp(o, out)}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// finish builds the result line from the metrics of specs. A metric the
// workload did not measure is an error, unless absentIsZero says it stands
// for a layer the workload does not exercise; a name outside both
// catalogues is always an error.
func finish(out outcome, specs []metricSpec, absentIsZero bool) (result, error) {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if out.attempted < 1 {
		return res, errors.New("the workload attempted no operation")
	}
	known := map[string]bool{}
	for _, s := range slices.Concat(endToEnd, perLayer) {
		known[s.name] = true
	}
	for name := range out.values {
		if !known[name] {
			return res, fmt.Errorf("metric %s is in neither catalogue", name)
		}
	}
	for _, s := range specs {
		v, ok := out.values[s.name]
		if !ok && !absentIsZero {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// stamp records what a result was measured on and with.
type stamp struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	RatesRPS   map[string]float64 `json:"rates_rps,omitempty"`
	Behind     bool               `json:"generator_behind"`
	Relay      string             `json:"relay_transport,omitempty"`
}

func newStamp(o options, out outcome) stamp {
	return stamp{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		RatesRPS:   out.rates,
		Behind:     out.behind,
		Relay:      out.relay,
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
