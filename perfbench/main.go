// Command perfbench is the repository benchmark. It drives the DFT flow's
// public entry points (core.RunDFTFlowCtx, core.RunSuiteCtx,
// core.RunBatchCtx and core.Cache) on one workload as a closed loop with
// one client, checks every output, and prints the metrics BENCHMARK.json
// names as the last line of standard output:
//
//	perfbench --workload table1 --seed 2018 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes.
// With --trace 1 it runs untraced passes, then traced passes under a stage
// Observer and a CPU profile, and reports the per-layer metrics. README.md
// records why each workload exists and which end-to-end metric each layer
// metric should move. Run it through run.sh, which builds it from the
// checkout's sources.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 3

// minPasses is the fewest timed passes a run reports medians over.
const minPasses = 2

// runDeadline bounds a whole run, so the process exits within the
// benchmark's 180 s limit even when the program under test slows down:
// operations still running at the deadline come back interrupted and
// count as failed.
const runDeadline = 150 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 2018, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "seconds of timed passes")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	report, res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(map[string]any{"report": report}), enc.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up, measures it and assembles the report and the
// result line.
func run(cfg config) (map[string]any, *result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	defer w.close()

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m := &measurement{workload: w}
	budget := time.Duration(cfg.seconds) * time.Second
	var ms metricSet
	if cfg.trace {
		err = m.traced(ctx, cfg, budget, &ms)
	} else {
		m.untraced(ctx, budget, minPasses)
		err = m.endToEnd(median(setups), &ms)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := w.close(); err != nil {
		return nil, nil, fmt.Errorf("clean-up: %w", err)
	}
	report := m.report(cfg, setups)
	res := &result{
		Correct:   m.counts.failed == 0 && len(m.violations) == 0,
		Attempted: m.counts.attempted,
		Failed:    m.counts.failed,
		Metrics:   ms.vals,
	}
	return report, res, nil
}
