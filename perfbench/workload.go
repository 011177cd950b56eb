package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/pso"
)

// workload is one benchmark input set, run as a closed loop with one
// client: the next operation starts only after the previous one returned.
type workload interface {
	// setup builds the workload's inputs from scratch. It runs several
	// times per process (setup_s is the median); later calls replace the
	// state of earlier ones.
	setup(ctx context.Context) error
	// pass runs one pass of operations in the seed's order. Operation
	// latencies are timed around the public entry point only; output
	// checks are returned as closures and run after the pass, outside the
	// timed region.
	pass(ctx context.Context, tr *tracer) []opRecord
	// close releases what setup created (temporary stores).
	close() error
}

// opRecord is one timed operation of a pass.
type opRecord struct {
	name    string
	latency time.Duration
	// err is the operation's own failure (an error or an interrupted or
	// partial-coverage result).
	err error
	// check verifies the outputs; nil when err is already set.
	check func(tr *tracer) error
	// Outputs of the paper the operation produced: PSO-optimized assay
	// execution time (simulated seconds), DFT valves and test vectors.
	execPSO, dftValves, vectors int
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"table1", "ilp-reference", "fpva-suite", "warm-rerun"}

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed int64) (workload, error) {
	nproc := runtime.NumCPU()
	switch name {
	case "table1":
		return &flowWorkload{seed: seed, workers: nproc, jobs: table1Jobs}, nil
	case "ilp-reference":
		return &flowWorkload{seed: seed, workers: ilpWorkers, jobs: ilpJobs, ilp: true}, nil
	case "fpva-suite":
		return &suiteWorkload{seed: seed, workers: nproc}, nil
	case "warm-rerun":
		return &warmWorkload{seed: seed, workers: nproc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paperSeed is the PSO seed of every flow: the paper configuration the
// repository's Table 1 reproduction uses. The benchmark seed does not
// change it, because the flow's cost swings with the PSO trajectory (a
// Table 1 pass takes 6.5 s to 11.5 s over PSO seeds 1-3 on a 2-core
// Xeon VM) while the outputs the paper reports stay comparable; a fixed
// trajectory keeps wall-clock comparisons about the code.
const paperSeed = 2018

// paperOptions is the paper's flow configuration (5x5 particles, 100
// outer and 8 inner iterations, heuristic reference unless useILP).
func paperOptions(workers int, useILP bool) core.Options {
	return core.Options{
		Outer:   pso.Config{Particles: 5, Iterations: 100},
		Inner:   pso.Config{Particles: 5, Iterations: 8},
		Seed:    paperSeed,
		Workers: workers,
		UseILP:  useILP,
	}
}

// flowJob is one chip x assay flow submission.
type flowJob struct {
	chipName, assayName string
	seed                int64 // PSO seed (Options.Seed)
}

func (j flowJob) name() string { return j.chipName + "/" + j.assayName }

// load builds the job's chip and assay.
func (j flowJob) load() (*chip.Chip, *assay.Graph, error) {
	c, ok := chip.BenchmarkByName(j.chipName)
	if !ok {
		return nil, nil, fmt.Errorf("unknown chip %q", j.chipName)
	}
	g, ok := assay.BenchmarkByName(j.assayName)
	if !ok {
		return nil, nil, fmt.Errorf("unknown assay %q", j.assayName)
	}
	return c, g, nil
}

// table1Jobs are the paper's nine Table 1 combinations.
var table1Jobs = func() []flowJob {
	var jobs []flowJob
	for _, c := range []string{"IVD_chip", "RA30_chip", "mRNA_chip"} {
		for _, a := range []string{"IVD", "PID", "CPA"} {
			jobs = append(jobs, flowJob{c, a, paperSeed})
		}
	}
	return jobs
}()

// ilpJobs are the exact-reference flows: the only chip on which the
// paper's ILP (eqs. (1)-(6)) solves in seconds.
var ilpJobs = []flowJob{{"IVD_chip", "IVD", paperSeed}, {"IVD_chip", "PID", paperSeed}}

// ilpWorkers is the worker count of the ilp-reference flows. At
// workers > 1 the parallel branch-and-bound explores a timing-dependent
// number of nodes for the same result (README.md records the spread), so
// a timed pass would measure search luck; one worker explores the same
// nodes every run.
const ilpWorkers = 1

// flowWorkload runs DFT flows one after another: table1 and ilp-reference.
type flowWorkload struct {
	seed    int64
	workers int
	jobs    []flowJob
	ilp     bool

	rng    *rand.Rand
	inputs []flowInput
}

type flowInput struct {
	job   flowJob
	chip  *chip.Chip
	assay *assay.Graph
	opts  core.Options
}

func (w *flowWorkload) setup(ctx context.Context) error {
	w.rng = rand.New(rand.NewSource(w.seed))
	w.inputs = w.inputs[:0]
	for _, j := range w.jobs {
		c, g, err := j.load()
		if err != nil {
			return err
		}
		opts := paperOptions(w.workers, w.ilp)
		opts.Seed = j.seed
		w.inputs = append(w.inputs, flowInput{j, c, g, opts})
	}
	return warmUpFlows(ctx)
}

// warmUpJobs are untimed heuristic flows on the smallest combinations that
// every flow workload's set-up runs, so the process's lazy set-up (heap
// growth, pools, first-touch page faults) is paid before timing.
var warmUpJobs = []flowJob{{"IVD_chip", "IVD", paperSeed}, {"IVD_chip", "PID", paperSeed}, {"RA30_chip", "IVD", paperSeed}}

func warmUpFlows(ctx context.Context) error {
	for _, j := range warmUpJobs {
		c, g, err := j.load()
		if err != nil {
			return err
		}
		res, err := core.RunDFTFlowCtx(ctx, c, g, paperOptions(runtime.NumCPU(), false))
		if err == nil {
			err = flowResultErr(res)
		}
		if err != nil {
			return fmt.Errorf("warm-up flow %s: %w", j.name(), err)
		}
	}
	return nil
}

func (w *flowWorkload) pass(ctx context.Context, tr *tracer) []opRecord {
	var recs []opRecord
	for _, i := range w.rng.Perm(len(w.inputs)) {
		in := w.inputs[i]
		obs := tr.observer()
		opts := in.opts
		opts.Observer = asObserver(obs)
		t0 := time.Now()
		res, err := core.RunDFTFlowCtx(ctx, in.chip, in.assay, opts)
		rec := opRecord{name: in.job.name(), latency: time.Since(t0)}
		if err == nil {
			err = flowResultErr(res)
		}
		if err != nil {
			rec.err = fmt.Errorf("%s: %w", rec.name, err)
			recs = append(recs, rec)
			continue
		}
		tr.addOp(rec.name, obs, res.Stats)
		rec.execPSO, rec.dftValves, rec.vectors = res.ExecPSO, res.NumDFTValves, res.NumTestVectors
		rec.check = func(tr *tracer) error {
			if err := checkFlow(ctx, in.chip, in.assay, in.opts, res, tr); err != nil {
				return fmt.Errorf("%s: %w", in.job.name(), err)
			}
			if w.ilp && res.Solve.Name != "exact" {
				return fmt.Errorf("%s: reference came from tier %q, not the exact ILP", in.job.name(), res.Solve.Name)
			}
			return nil
		}
		recs = append(recs, rec)
	}
	return recs
}

func (w *flowWorkload) close() error { return nil }

// nodeSpread solves each exact reference runs times at the given worker
// count and returns the branch-and-bound node count of every solve.
func (w *flowWorkload) nodeSpread(ctx context.Context, workers, runs int) ([]int64, error) {
	var nodes []int64
	for _, in := range w.inputs {
		opts := in.opts
		opts.Workers = workers
		for r := 0; r < runs; r++ {
			res, err := core.RunDFTFlowCtx(ctx, in.chip, in.assay, opts)
			if err == nil {
				err = flowResultErr(res)
			}
			if err != nil {
				return nil, fmt.Errorf("%s at %d workers: %w", in.job.name(), workers, err)
			}
			if st := res.Stats.Stage(core.StageReference); st != nil {
				nodes = append(nodes, st.Counter("ilp_nodes"))
			}
		}
	}
	return nodes, nil
}
