package main

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flowstage"
)

// tracer is the per-layer record of the traced passes. Workloads receive
// a nil *tracer on untraced passes; every method is a no-op on nil, so the
// timed code paths carry no tracing cost. Only the benchmark's one client
// goroutine uses it.
type tracer struct {
	// spans sums the Observer-stamped stage spans per stage name; stageDur
	// sums the matching StageStats.Duration values.
	spans    map[string]time.Duration
	stageDur map[string]time.Duration
	// counters sums every stage counter; iters sums SolverIters.
	counters map[string]int64
	iters    int64
	// calls sums the benchmark's own timed direct calls into the layers
	// (artifact digests, store loads, decodes, output re-checks).
	calls map[string]time.Duration
	// values holds workload-specific tallies (batch sharing, cache tiers).
	values map[string]float64
	// violations lists failed traced-run self-checks.
	violations []string
}

func newTracer() *tracer {
	return &tracer{
		spans:    map[string]time.Duration{},
		stageDur: map[string]time.Duration{},
		counters: map[string]int64{},
		calls:    map[string]time.Duration{},
		values:   map[string]float64{},
	}
}

// spanObserver is the benchmark-owned flowstage.Observer of one
// operation: it stamps the wall-clock span of every stage. Pipelines
// serialize their Observer calls, so it needs no lock.
type spanObserver struct {
	flowstage.Nop
	open  map[string]time.Time
	spans []stageSpan
}

type stageSpan struct {
	name string
	dur  time.Duration
}

func (o *spanObserver) StageStart(stage string) {
	if o.open == nil {
		o.open = map[string]time.Time{}
	}
	o.open[stage] = time.Now()
}

func (o *spanObserver) StageEnd(stage string, _ flowstage.StageStats) {
	if t0, ok := o.open[stage]; ok {
		o.spans = append(o.spans, stageSpan{stage, time.Since(t0)})
		delete(o.open, stage)
	}
}

// observer returns a fresh Observer for one operation, or nil when
// tracing is off.
func (t *tracer) observer() *spanObserver {
	if t == nil {
		return nil
	}
	return &spanObserver{}
}

// asObserver converts o for an Options field without storing a typed nil.
func asObserver(o *spanObserver) flowstage.Observer {
	if o == nil {
		return nil
	}
	return o
}

// Tolerances of the span self-check: an Observer span brackets its stage
// timer from outside, so it may exceed StageStats.Duration by the event
// overhead, and the spans of one operation may exceed Stats.Total only by
// clock granularity.
const (
	spanSlack     = time.Millisecond
	spanSlackFrac = 0.01
)

// addOp folds one traced operation into the record: the Observer's spans,
// the operation's stage stats and counters. It checks that every pipeline
// stage span agrees with its StageStats.Duration and that the spans sum to
// no more than Stats.Total. The synthesized artifact stage of a cache hit
// is emitted after the lookup it times, so its span is only checked to lie
// within its Duration.
func (t *tracer) addOp(op string, o *spanObserver, st *flowstage.Stats) {
	if t == nil || st == nil {
		return
	}
	var spanSum time.Duration
	for i, s := range st.Stages {
		t.stageDur[s.Name] += s.Duration
		t.iters += s.SolverIters
		for k, v := range s.Counters {
			t.counters[k] += v
		}
		if o == nil {
			continue
		}
		if i >= len(o.spans) || o.spans[i].name != s.Name {
			t.violations = append(t.violations, fmt.Sprintf("%s: stage %s has no observer span", op, s.Name))
			continue
		}
		span := o.spans[i].dur
		spanSum += span
		t.spans[s.Name] += span
		slack := spanSlack + time.Duration(spanSlackFrac*float64(s.Duration))
		if s.Name == core.StageArtifact {
			if span > s.Duration+slack {
				t.violations = append(t.violations, fmt.Sprintf("%s: artifact span %v exceeds its duration %v", op, span, s.Duration))
			}
			continue
		}
		if d := span - s.Duration; d < -slack || d > slack {
			t.violations = append(t.violations, fmt.Sprintf("%s: stage %s span %v vs duration %v", op, s.Name, span, s.Duration))
		}
	}
	if o != nil && spanSum > st.Total+spanSlack {
		t.violations = append(t.violations, fmt.Sprintf("%s: stage spans %v exceed total %v", op, spanSum, st.Total))
	}
}

// value adds to a workload tally.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.values[name] += v
}

// timeCall runs fn and, when tracing, adds its duration to the named
// direct-call span.
func (t *tracer) timeCall(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	t.calls[name] += time.Since(t0)
}

// violate records a failed self-check.
func (t *tracer) violate(format string, args ...any) {
	t.violations = append(t.violations, fmt.Sprintf(format, args...))
}

// ratio returns num/(num+den), 0 when both are zero.
func ratio(num, den int64) float64 {
	if num+den == 0 {
		return 0
	}
	return float64(num) / float64(num+den)
}

// share returns num/total, 0 when total is zero.
func share(num, total float64) float64 {
	if total == 0 {
		return 0
	}
	return num / total
}

// layers maps repository packages to the benchmark's layers; packages not
// listed (the standard library, the benchmark itself) fall into "other".
var layers = map[string]string{
	"core": "core", "flowstage": "core", "solve": "core",
	"sched": "sched", "fault": "fault", "testgen": "testgen", "pso": "pso",
	"ilp": "ilp", "lp": "lp", "pressure": "pressure", "graphalg": "graphalg",
	"chip": "chip", "assay": "chip", "grid": "chip", "control": "chip",
	"artifact": "artifact",
}

// cpuLayers lists the layers whose CPU self time the traced run reports,
// each as cpu.<layer>_s.
var cpuLayers = []string{"core", "sched", "fault", "testgen", "pso", "ilp", "lp",
	"pressure", "graphalg", "chip", "artifact", "runtime", "other"}

// funcPackage returns the import path of a symbol name as pprof prints
// it, e.g. "repro/internal/core.(*flow).run.func1" -> "repro/internal/core".
// Type arguments of generic symbols may themselves hold import paths, so
// they are cut off first.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a symbol to its layer.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if l, ok := layers[rest]; ok {
			return l
		}
	}
	return "other"
}

var (
	rawSample   = regexp.MustCompile(`^\s*(\d+)\s+(\d+):\s*([\d ]*)$`)
	rawLocation = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ (?:M=\d+ )?(\S+)`)
)

// profileSelfTime aggregates a CPU profile, in the text form
// `go tool pprof -raw` prints, into self time per layer: each sample's
// value goes to the layer of its leaf frame (the innermost inlined
// function of the sample's first location).
func profileSelfTime(r io.Reader) (map[string]time.Duration, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	type sample struct {
		ns   int64
		leaf string
	}
	var samples []sample
	leafFunc := map[string]string{}
	section := ""
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			m := rawSample.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			ns, err := strconv.ParseInt(m[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile sample %q: %w", line, err)
			}
			locs := strings.Fields(m[3])
			if len(locs) == 0 {
				continue
			}
			samples = append(samples, sample{ns, locs[0]})
		case "Locations":
			if m := rawLocation.FindStringSubmatch(line); m != nil {
				leafFunc[m[1]] = m[2]
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if section == "" {
		return nil, fmt.Errorf("not a pprof -raw listing")
	}
	self := map[string]time.Duration{}
	for _, s := range samples {
		fn, ok := leafFunc[s.leaf]
		if !ok {
			return nil, fmt.Errorf("profile sample refers to unknown location %s", s.leaf)
		}
		self[layerOf(fn)] += time.Duration(s.ns)
	}
	return self, nil
}
