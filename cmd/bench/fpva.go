package main

// fpva.go is the -fpva mode: the scaling-curve suite for per-valve test
// generation on parametric FPVA grids. For each grid size on the curve
// (8x8 through 64x64) it generates the chip, runs the per-valve baseline
// solver and the symmetry-exploiting template engine (single worker, so
// ns/vector compares algorithms, not parallelism), fault-simulates both
// suites and gates on coverage bit-identity, asserts the template suite
// is bit-identical for 1/2/4/8 workers, and records the campaign's
// fast-path metrics, a bounded DAC test-path ILP probe at the small
// sizes, and peak RSS. A second template pass per size runs against one
// engine shared across the whole curve, measuring how many equivalence
// classes later sizes reuse from earlier ones.
//
// Two hard gates make the mode CI-enforceable (exit 1 on violation):
// baseline and template coverage must be bit-identical wherever both run
// (the largest size runs only the template engine and must fully cover),
// and the template engine must be at least minSpeedup faster per vector
// on the largest size both engines run (>= 32x32). The committed
// BENCH_fpva.json is regenerated with:
//
//	go run ./cmd/bench -fpva -out BENCH_fpva.json

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/chip"
	"repro/internal/cliutil"
	"repro/internal/fault"
	"repro/internal/ilp"
	"repro/internal/testgen"
)

// fpvaSizes is the scaling curve. Sizes above fpvaMaxBaseline skip the
// per-valve baseline leg (its superlinear cost would dominate the run);
// sizes up to fpvaMaxILP run the bounded DAC test-path ILP probe.
var fpvaSizes = []int{8, 16, 32, 48, 64}

const (
	fpvaMaxBaseline = 48
	fpvaMaxILP      = 16
	fpvaILPNodes    = 60
	// minSpeedup is the acceptance gate: template vs baseline ns/vector
	// on the largest size both engines run.
	minSpeedup = 5.0
)

// FPVADoc is the serialized scaling-curve report.
type FPVADoc struct {
	GoMaxProcs int   `json:"gomaxprocs"`
	Seed       int64 `json:"seed"`
	// GateSize and Speedup record the acceptance gate: template speedup
	// at the largest size with both engine legs.
	GateSize    int         `json:"gate_size"`
	Speedup     float64     `json:"speedup_template_vs_baseline"`
	MinSpeedup  float64     `json:"min_speedup_gate"`
	CurvePoints []FPVAPoint `json:"curve"`
}

// FPVAPoint is one grid size on the scaling curve.
type FPVAPoint struct {
	Size    int `json:"size"` // the grid is Size x Size
	Valves  int `json:"valves"`
	Ports   int `json:"ports"`
	Vectors int `json:"vectors"` // deduped suite vectors (template engine)

	// Engine legs (absent baseline at the largest sizes).
	Baseline *FPVAEngineLeg `json:"baseline,omitempty"`
	Template *FPVAEngineLeg `json:"template"`

	// SharedCacheHits/SharedClasses measure the cross-size template
	// cache: generating this size against the engine shared across the
	// whole curve, how many of its equivalence classes were already
	// solved by earlier (smaller) sizes.
	SharedCacheHits int64 `json:"shared_cache_hits"`
	SharedClasses   int   `json:"shared_classes"`

	// CoverageIdentical is the bit-identity gate result (true whenever
	// the baseline leg ran; the largest sizes assert full coverage
	// instead).
	CoverageIdentical bool    `json:"coverage_identical"`
	CoverageRatio     float64 `json:"coverage_ratio"`
	WorkerInvariant   bool    `json:"worker_invariant"`

	// Campaign is the fault-simulation leg over the template suite.
	Campaign FPVACampaign `json:"campaign"`

	// ILPNodes/ILPNsPerNode probe the paper's test-path ILP (bounded
	// branch-and-bound) at the small sizes, for scale context.
	ILPNodes     int   `json:"ilp_nodes,omitempty"`
	ILPNsPerNode int64 `json:"ilp_ns_per_node,omitempty"`

	// PeakRSSBytes is /proc/self/status VmHWM after this size's legs
	// (0 where unsupported); HeapBytes is runtime.MemStats.HeapAlloc.
	PeakRSSBytes int64  `json:"peak_rss_bytes,omitempty"`
	HeapBytes    uint64 `json:"heap_bytes"`
}

// FPVAEngineLeg is one suite-generation engine's measurement at one size.
type FPVAEngineLeg struct {
	NsPerOp     int64 `json:"ns_per_op"`
	NsPerVector int64 `json:"ns_per_vector"`
	RawVectors  int   `json:"raw_vectors"`
	SimEvals    int64 `json:"sim_evals"`
	// Template-engine structure counters (zero for the baseline leg).
	Classes      int   `json:"classes,omitempty"`
	LineClasses  int   `json:"line_classes,omitempty"`
	Instantiated int64 `json:"instantiated,omitempty"`
	Fallbacks    int64 `json:"fallbacks,omitempty"`
	PathSolves   int64 `json:"path_solves"`
	CutSolves    int64 `json:"cut_solves"`
}

// FPVACampaign is the fault-simulation leg: the template suite against
// every stuck-at fault, with the fast-path rule counters that explain why
// the campaign stays near-linear.
type FPVACampaign struct {
	Faults         int     `json:"faults"`
	NsPerOp        int64   `json:"ns_per_op"`
	PressureSolves int64   `json:"pressure_solves"` // distinct fault-free vector simulations (memo misses)
	ScreenSkips    int64   `json:"screen_skips"`
	ReachChecks    int64   `json:"reach_checks"`
	BridgeChecks   int64   `json:"bridge_checks"`
	CoverageRatio  float64 `json:"coverage_ratio"`
}

// fpvaChip builds the curve's chip at one size (fixed seed, default
// perimeter ports).
func fpvaChip(n int) *chip.Chip {
	return chip.MustGenerateFPVA(chip.FPVAParams{W: n, H: n, Seed: 1})
}

// timeSuite measures gen over enough iterations to damp timer noise at
// the small sizes and returns (ns/op, last suite).
func timeSuite(n int, gen func() (*testgen.Suite, error)) (int64, *testgen.Suite, error) {
	iters := 1
	if n <= 16 {
		iters = 5
	}
	var s *testgen.Suite
	var err error
	start := time.Now()
	for i := 0; i < iters; i++ {
		s, err = gen()
		if err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start).Nanoseconds() / int64(iters), s, nil
}

// engineLeg folds a timed suite into its serialized leg.
func engineLeg(nsPerOp int64, s *testgen.Suite) *FPVAEngineLeg {
	nv := len(s.Paths) + len(s.Cuts)
	leg := &FPVAEngineLeg{
		NsPerOp:      nsPerOp,
		RawVectors:   s.Stats.RawVectors,
		SimEvals:     s.Stats.SimEvals,
		Classes:      s.Stats.Classes,
		LineClasses:  s.Stats.LineClasses,
		Instantiated: s.Stats.Instantiated,
		Fallbacks:    s.Stats.Fallbacks,
		PathSolves:   s.Stats.PathSolves,
		CutSolves:    s.Stats.CutSolves,
	}
	if nv > 0 {
		leg.NsPerVector = nsPerOp / int64(nv)
	}
	return leg
}

// canonicalSuite reduces a suite to the fields the bit-identity checks
// compare (everything except generation statistics).
func canonicalSuite(s *testgen.Suite) any {
	return struct {
		Paths, Cuts   []fault.Vector
		PathOf, CutOf []int
		Uncovered     []int
	}{s.Paths, s.Cuts, s.PathOf, s.CutOf, s.Uncovered}
}

// peakRSSBytes reads VmHWM (peak resident set) from /proc/self/status;
// 0 where the file or field is unavailable.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

func runFPVA(outFile, baselineFile string) int {
	doc := FPVADoc{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       1,
		MinSpeedup: minSpeedup,
	}
	shared := testgen.NewTemplateEngine()
	var gateBaseNs, gateTmplNs int64
	for _, n := range fpvaSizes {
		c := fpvaChip(n)
		pt := FPVAPoint{Size: n, Valves: c.NumValves(), Ports: len(c.Ports)}

		// Template leg: a fresh engine per iteration, so the measurement
		// is the cold class-solve + instantiate cost.
		tmplNs, tmplSuite, err := timeSuite(n, func() (*testgen.Suite, error) {
			return testgen.GenerateTemplates(c, testgen.SuiteOptions{Workers: 1})
		})
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		if len(tmplSuite.Uncovered) > 0 {
			return cliutil.Fail(tool, fmt.Errorf("fpva %dx%d: template suite left %d valves uncovered", n, n, len(tmplSuite.Uncovered)))
		}
		pt.Template = engineLeg(tmplNs, tmplSuite)
		pt.Vectors = len(tmplSuite.Paths) + len(tmplSuite.Cuts)

		// Baseline leg + coverage bit-identity gate.
		tmplCov := tmplSuite.Coverage(0)
		pt.CoverageRatio = tmplCov.Ratio()
		if n <= fpvaMaxBaseline {
			baseNs, baseSuite, err := timeSuite(n, func() (*testgen.Suite, error) {
				return testgen.GenerateBaseline(c, testgen.SuiteOptions{Workers: 1})
			})
			if err != nil {
				return cliutil.Fail(tool, err)
			}
			pt.Baseline = engineLeg(baseNs, baseSuite)
			baseCov := baseSuite.Coverage(0)
			pt.CoverageIdentical = reflect.DeepEqual(tmplCov, baseCov)
			if !pt.CoverageIdentical {
				return cliutil.Fail(tool, fmt.Errorf(
					"fpva %dx%d: coverage gate failed: template %v, baseline %v", n, n, tmplCov, baseCov))
			}
			gateBaseNs, gateTmplNs = pt.Baseline.NsPerVector, pt.Template.NsPerVector
			doc.GateSize = n
		} else if !tmplCov.Full() {
			return cliutil.Fail(tool, fmt.Errorf("fpva %dx%d: template coverage not full: %v", n, n, tmplCov))
		} else {
			pt.CoverageIdentical = true // vacuous: full coverage, no baseline leg
		}

		// Worker-count invariance of the template suite.
		want := canonicalSuite(tmplSuite)
		pt.WorkerInvariant = true
		for _, w := range []int{2, 4, 8} {
			s, err := testgen.GenerateTemplates(c, testgen.SuiteOptions{Workers: w})
			if err != nil {
				return cliutil.Fail(tool, err)
			}
			if !reflect.DeepEqual(want, canonicalSuite(s)) {
				return cliutil.Fail(tool, fmt.Errorf("fpva %dx%d: suite differs at %d workers", n, n, w))
			}
		}

		// Cross-size shared-cache leg: how much of this size's class set
		// was already solved by the smaller sizes.
		ss, err := shared.Generate(c, testgen.SuiteOptions{Workers: 1})
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		pt.SharedCacheHits = ss.Stats.TemplateHits
		pt.SharedClasses = ss.Stats.Classes

		// Campaign leg with the fast-path metrics attached.
		metrics := fault.NewMetrics()
		sim, err := fault.NewSimulator(c, chip.IndependentControl(c))
		if err != nil {
			return cliutil.Fail(tool, err)
		}
		sim.SetMetrics(metrics)
		faults := fault.AllFaults(c)
		campStart := time.Now()
		cov := fault.NewEngine(sim, 0).EvaluateCoverage(tmplSuite.Vectors(), faults)
		snap := metrics.Snapshot()
		pt.Campaign = FPVACampaign{
			Faults:         len(faults),
			NsPerOp:        time.Since(campStart).Nanoseconds(),
			PressureSolves: snap.MemoMisses,
			ScreenSkips:    snap.ScreenSkips,
			ReachChecks:    snap.ReachChecks,
			BridgeChecks:   snap.BridgeChecks,
			CoverageRatio:  cov.Ratio(),
		}

		// Bounded DAC test-path ILP probe for scale context.
		if n <= fpvaMaxILP {
			m, lazy := testgen.PathILPModel(c, 2)
			probeStart := time.Now()
			res, err := m.Solve(ilp.Options{MaxNodes: fpvaILPNodes, Lazy: lazy})
			if err == nil && res.Nodes > 0 {
				pt.ILPNodes = res.Nodes
				pt.ILPNsPerNode = time.Since(probeStart).Nanoseconds() / int64(res.Nodes)
			}
		}

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		pt.HeapBytes = ms.HeapAlloc
		pt.PeakRSSBytes = peakRSSBytes()

		doc.CurvePoints = append(doc.CurvePoints, pt)
		fmt.Fprintf(os.Stderr, "%2dx%-2d %5d valves %5d vectors  tmpl %8d ns/vec  classes %d (%d line)",
			n, n, pt.Valves, pt.Vectors, pt.Template.NsPerVector, pt.Template.Classes, pt.Template.LineClasses)
		if pt.Baseline != nil {
			fmt.Fprintf(os.Stderr, "  base %8d ns/vec (%.1fx)",
				pt.Baseline.NsPerVector, float64(pt.Baseline.NsPerVector)/float64(pt.Template.NsPerVector))
		}
		fmt.Fprintln(os.Stderr)
	}

	// Speedup acceptance gate at the largest size with both legs.
	if gateTmplNs > 0 {
		doc.Speedup = float64(gateBaseNs) / float64(gateTmplNs)
	}
	if doc.GateSize < 32 || doc.Speedup < minSpeedup {
		return cliutil.Fail(tool, fmt.Errorf(
			"fpva speedup gate failed: %.1fx at %dx%d (need >= %.0fx at >= 32x32)",
			doc.Speedup, doc.GateSize, doc.GateSize, minSpeedup))
	}
	fmt.Fprintf(os.Stderr, "gate: %.1fx template speedup at %dx%d (>= %.0fx required)\n",
		doc.Speedup, doc.GateSize, doc.GateSize, minSpeedup)
	if baselineFile != "" {
		var base FPVADoc
		if err := readBaseline(baselineFile, &base); err != nil {
			return cliutil.Fail(tool, err)
		}
		if err := gateRatio("template speedup", doc.Speedup, base.Speedup); err != nil {
			return cliutil.Fail(tool, err)
		}
	}
	return writeBenchArtifact(outFile, doc)
}
