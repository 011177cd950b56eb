package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowstage"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := geomean(map[string]float64{"a": 2, "b": 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if !math.IsNaN(geomean(nil)) || !math.IsNaN(geomean(map[string]float64{"a": 0})) {
		t.Error("geomean of nothing or of a zero is not NaN")
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median/percentile reordered their input: %v", xs)
	}
}

// TestFailureAccounting pins what counts as a failed operation: its own
// error, a failing output check, and a missing check.
func TestFailureAccounting(t *testing.T) {
	ok := func(*tracer) error { return nil }
	bad := func(*tracer) error { return errors.New("bad output") }
	m := &measurement{}
	m.check(passRecord{ops: []opRecord{
		{name: "fine", check: ok},
		{name: "erred", err: errors.New("interrupted")},
		{name: "wrong", check: bad},
		{name: "unchecked"},
		{name: "fine2", check: ok},
	}}, nil)
	if m.counts.attempted != 5 || m.counts.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", m.counts.attempted, m.counts.failed)
	}
	if got := m.counts.failedFrac(); got != 0.6 {
		t.Errorf("failedFrac = %v, want 0.6", got)
	}
	if len(m.failures) != 3 || !strings.Contains(m.failures[2], "no output check") {
		t.Errorf("failures = %q", m.failures)
	}
	if (counts{}).failedFrac() != 0 {
		t.Error("failedFrac of nothing attempted is not 0")
	}
}

func TestMetricNames(t *testing.T) {
	for _, s := range []string{"latency_ms.p50", "cpu.runtime_s", "1x", "ilp-reference", strings.Repeat("a", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_a", ".a", "a b", "a/b", "p99%", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "count", "MB"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", strings.Repeat("s", 17)} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
	var ms metricSet
	if err := ms.set("wall_s", "s", 1); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{ms.set("wall_s", "s", 2), ms.set("bad name", "s", 1), ms.set("x", "s", 0/zero())} {
		if err == nil {
			t.Error("metricSet.set accepted a duplicate, invalid or non-finite metric")
		}
	}
}

func zero() float64 { return 0 }

// TestSeedDeterminism checks that a seed fixes the warm-rerun request
// stream and batch composition, that another seed changes them, and that
// the flow job lists name the Table 1 combinations.
func TestSeedDeterminism(t *testing.T) {
	warm := func(seed int64) ([][]request, [][]int) {
		w := &warmWorkload{rng: rand.New(rand.NewSource(seed)), deck: warmDeck(len(warmFlowJobs), len(warmSuiteGrids))}
		for range warmFlowJobs {
			w.entries = append(w.entries, warmEntry{kind: "flow"})
		}
		for range warmSuiteGrids {
			w.entries = append(w.entries, warmEntry{kind: "suite"})
		}
		var reqs [][]request
		var batches [][]int
		for p := 0; p < 3; p++ {
			reqs = append(reqs, w.requests())
			batches = append(batches, w.batchEntries())
		}
		return reqs, batches
	}
	r1, b1 := warm(7)
	r2, b2 := warm(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(b1, b2) {
		t.Error("same seed gave different request streams")
	}
	if r3, _ := warm(8); reflect.DeepEqual(r1, r3) {
		t.Error("different seeds gave the same request stream")
	}
	if n := len(r1[0]); n != 2*flowRequests*len(warmFlowJobs)+2*len(warmSuiteGrids)+batchRequests {
		t.Errorf("deck has %d requests", n)
	}
	for _, b := range b1 {
		if len(b) != batchSize {
			t.Fatalf("batch has %d jobs, want %d", len(b), batchSize)
		}
		distinct := map[int]bool{}
		for _, i := range b {
			distinct[i] = true
		}
		if len(distinct) != batchSize/4 {
			t.Errorf("batch has %d distinct jobs, want %d (75%% duplicates)", len(distinct), batchSize/4)
		}
	}

	seen := map[string]bool{}
	for _, j := range append(append([]flowJob{}, table1Jobs...), warmFlowJobs...) {
		if _, _, err := j.load(); err != nil {
			t.Errorf("%s: %v", j.name(), err)
		}
		seen[j.name()] = true
	}
	if len(table1Jobs) != 9 || len(seen) != 9 {
		t.Errorf("table1 has %d jobs over %d combinations, want the 9 Table 1 rows", len(table1Jobs), len(seen))
	}
}

// rawFixture is a trimmed `go tool pprof -raw` listing: a leaf inlined
// into its caller, a generic symbol whose type argument names another
// package, runtime frames of both spellings and a standard-library leaf.
const rawFixture = `PeriodType: cpu nanoseconds
Period: 10000000
Duration: 1.2s
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2 3
          1   10000000: 2 3
          3   30000000: 4 3
          1   10000000: 5 3
          1   10000000: 6 3
          1   10000000: 7
Locations
     1: 0x4d2ffa M=1 repro/internal/graphalg.(*Graph).BFSFrom /src/graphalg/graph.go:169:0 s=153
             repro/internal/fault.(*Simulator).Detects /src/fault/fault.go:338:0 s=335
     2: 0x4fb704 M=1 repro/internal/fault.(*Simulator).detectsEval /src/fault/fastpath.go:267:0 s=247
     3: 0x43aeea M=1 runtime.main /go/src/runtime/proc.go:283:0 s=147
     4: 0x4e0000 M=1 repro/internal/artifact.(*Cache[go.shape.*repro/internal/core.augEval]).Do /src/artifact/cache.go:92:0 s=92
     5: 0x4086da M=1 internal/runtime/maps.ctrlGroup.matchH2 /go/src/internal/runtime/maps/group.go:148:0 s=147
             runtime.mapaccess2 /go/src/internal/runtime/maps/runtime_swiss.go:161:0 s=117
     6: 0x476b8a M=1 sync.(*Once).doSlow /go/src/sync/once.go:78:0 s=73
     7: 0x4fcfbe M=1 repro/internal/flowstage.(*Pipeline).Run /src/flowstage/flowstage.go:156:0 s=142
Mappings
1: 0x400000/0x6b2000/0x0 /bin/perfbench  [FN]
`

func TestProfileSelfTime(t *testing.T) {
	self, err := profileSelfTime(strings.NewReader(rawFixture))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"graphalg": 20 * time.Millisecond,
		"fault":    10 * time.Millisecond,
		"artifact": 30 * time.Millisecond,
		"runtime":  10 * time.Millisecond,
		"other":    10 * time.Millisecond,
		"core":     10 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self time %v, want %v", self, want)
	}
	if _, err := profileSelfTime(strings.NewReader("Samples:\n 1 10: 99\nLocations\n")); err == nil {
		t.Error("a sample with an unknown location was accepted")
	}
	if _, err := profileSelfTime(strings.NewReader("not a profile\n")); err == nil {
		t.Error("text without sections was accepted")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*flow).runOuterStage.func1":          "repro/internal/core",
		"repro/internal/artifact.(*Cache[go.shape.*repro/x.T]).Do": "repro/internal/artifact",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2": "internal/runtime/maps",
		"encoding/json.(*decodeState).object":     "encoding/json",
		"main.main":                               "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestSpanSelfCheck checks the traced-run span checks: spans that agree
// with the stage timers pass, a span off by more than the slack and spans
// that exceed the total are reported, and a cache hit's synthesized
// artifact stage only needs its span within its duration.
func TestSpanSelfCheck(t *testing.T) {
	stats := func(total time.Duration, stages ...flowstage.StageStats) *flowstage.Stats {
		return &flowstage.Stats{Total: total, Stages: stages}
	}
	obs := func(spans ...stageSpan) *spanObserver { return &spanObserver{spans: spans} }
	ms := time.Millisecond

	tr := newTracer()
	tr.addOp("ok", obs(stageSpan{"outer", 100 * ms}, stageSpan{"finalize", 10 * ms}),
		stats(111*ms, flowstage.StageStats{Name: "outer", Duration: 100 * ms}, flowstage.StageStats{Name: "finalize", Duration: 10 * ms}))
	tr.addOp("hit", obs(stageSpan{core.StageArtifact, 0}),
		stats(50*ms, flowstage.StageStats{Name: core.StageArtifact, Duration: 50 * ms}))
	if len(tr.violations) != 0 {
		t.Fatalf("unexpected violations %q", tr.violations)
	}
	if tr.spans["outer"] != 100*ms || tr.stageDur[core.StageArtifact] != 50*ms {
		t.Errorf("spans %v, durations %v", tr.spans, tr.stageDur)
	}
	tr.addOp("off", obs(stageSpan{"outer", 120 * ms}),
		stats(200*ms, flowstage.StageStats{Name: "outer", Duration: 100 * ms}))
	tr.addOp("over", obs(stageSpan{"outer", 100 * ms}),
		stats(90*ms, flowstage.StageStats{Name: "outer", Duration: 100 * ms}))
	tr.addOp("missing", obs(),
		stats(90*ms, flowstage.StageStats{Name: "outer", Duration: 80 * ms}))
	if len(tr.violations) != 3 {
		t.Errorf("violations %q, want 3", tr.violations)
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json declares, with the declared units, and that
// every name and unit is valid.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, names)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	reported := func(ms metricSet) map[string]string {
		m := map[string]string{}
		for name, v := range ms.vals {
			m[name] = v.Unit
		}
		return m
	}

	m := &measurement{passes: []passRecord{{wall: time.Second, ops: []opRecord{{latency: time.Second, vectors: 3}}}}}
	var e2e metricSet
	if err := m.endToEnd(1, &e2e); err != nil {
		t.Fatal(err)
	}
	if got, want := reported(e2e), declared(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}

	m.tracedPasses = m.passes
	var layer metricSet
	if err := m.layerMetrics("table1", newTracer(), nil, memDelta{}, &layer); err != nil {
		t.Fatal(err)
	}
	if got, want := reported(layer), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

// TestIdleLayerSelfCheck checks that work on a layer a workload should
// leave idle is reported.
func TestIdleLayerSelfCheck(t *testing.T) {
	m := &measurement{tracedPasses: []passRecord{{wall: time.Second}}, passes: []passRecord{{wall: time.Second}}}
	tr := newTracer()
	tr.counters["sched_warm_runs"] = 3
	tr.counters["ilp_nodes"] = 10
	var ms metricSet
	if err := m.layerMetrics("fpva-suite", tr, nil, memDelta{}, &ms); err != nil {
		t.Fatal(err)
	}
	if len(tr.violations) != 2 {
		t.Errorf("violations %q, want sched.runs and ilp.nodes", tr.violations)
	}
}
