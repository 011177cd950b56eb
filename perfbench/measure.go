package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// passRecord is one timed pass: its wall-clock time and its operations.
type passRecord struct {
	wall time.Duration
	// cpu is the process's user+system CPU time during the pass.
	cpu time.Duration
	// steal is the time the host kept the machine's virtual CPUs from
	// running during the pass, summed over CPUs.
	steal time.Duration
	ops   []opRecord
}

// measurement accumulates a run's passes, failures and self-checks.
type measurement struct {
	workload     workload
	passes       []passRecord // untraced
	tracedPasses []passRecord
	counts       counts
	failures     []string
	// violations lists failed traced-run self-checks.
	violations []string
	// nodeSpread is the exact reference's node counts per solve at
	// workers=nproc (ilp-reference traced runs only).
	nodeSpread []int64
}

// maxFailures bounds the failure messages the report keeps.
const maxFailures = 10

func (m *measurement) runPass(ctx context.Context, tr *tracer) passRecord {
	s0, c0 := stealTime(), cpuTime()
	t0 := time.Now()
	ops := m.workload.pass(ctx, tr)
	return passRecord{wall: time.Since(t0), cpu: cpuTime() - c0, steal: stealTime() - s0, ops: ops}
}

// stealTime returns the machine's steal time so far, summed over CPUs,
// from the aggregate line of /proc/stat (in 1/100 s ticks); 0 when it
// cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check runs a pass's output checks and counts every operation. It drops
// each check once run, releasing the outputs it holds.
func (m *measurement) check(p passRecord, tr *tracer) {
	for i := range p.ops {
		op := &p.ops[i]
		err := op.err
		if err == nil {
			if op.check == nil {
				err = fmt.Errorf("%s: no output check", op.name)
			} else {
				err = op.check(tr)
				op.check = nil
			}
		}
		m.counts.add(err)
		if err != nil && len(m.failures) < maxFailures {
			m.failures = append(m.failures, err.Error())
		}
	}
}

// untraced runs at least min checked passes, and more while another pass
// of median length fits in budget.
func (m *measurement) untraced(ctx context.Context, budget time.Duration, min int) {
	var spent time.Duration
	for len(m.passes) < min || fits(spent, m.passes, budget) {
		if len(m.passes) > 0 && ctx.Err() != nil {
			return
		}
		p := m.runPass(ctx, nil)
		m.check(p, nil)
		m.passes = append(m.passes, p)
		spent += p.wall
	}
}

// fits reports whether another pass as long as the median of passes
// still ends within budget, allowing 5% overshoot.
func fits(spent time.Duration, passes []passRecord, budget time.Duration) bool {
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
	}
	next := time.Duration(median(walls) * float64(time.Second))
	return len(passes) == 0 || spent+next <= budget+budget/20
}

// endToEnd computes the end-to-end metrics of the untraced passes.
func (m *measurement) endToEnd(setup float64, ms *metricSet) error {
	var walls, slowest, vectors []float64
	for _, p := range m.passes {
		walls = append(walls, p.wall.Seconds())
		var worst time.Duration
		vec := 0
		for _, op := range p.ops {
			worst = max(worst, op.latency)
			vec += op.vectors
		}
		slowest = append(slowest, worst.Seconds())
		vectors = append(vectors, float64(vec))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	return errors.Join(
		ms.set("setup_s", "s", setup),
		ms.set("wall_s", "s", median(walls)),
		ms.set("slowest_op_s", "s", median(slowest)),
		ms.set("peak_rss_mb", "MB", rss),
		ms.set("test_vectors", "count", median(vectors)),
	)
}

// traced runs untraced passes for half the budget, then traced passes for
// the other half, each under its own CPU profile and checked after the
// profile stops, and computes the per-layer metrics of the traced passes.
func (m *measurement) traced(ctx context.Context, cfg config, budget time.Duration, ms *metricSet) error {
	m.untraced(ctx, budget/2, 1)
	tr := newTracer()
	var mem memDelta
	var profiles []string
	defer func() {
		for _, f := range profiles {
			os.Remove(f)
		}
	}()
	var spent time.Duration
	for len(m.tracedPasses) < 1 || fits(spent, m.tracedPasses, budget/2) {
		if len(m.tracedPasses) > 0 && ctx.Err() != nil {
			break
		}
		prof, err := os.CreateTemp("", "perfbench-cpu-*.pprof")
		if err != nil {
			return err
		}
		profiles = append(profiles, prof.Name())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return err
		}
		p := m.runPass(ctx, tr)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		if err := prof.Close(); err != nil {
			return err
		}
		mem.add(&before, &after)
		m.check(p, tr)
		m.tracedPasses = append(m.tracedPasses, p)
		spent += p.wall
	}
	raw, err := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-raw"}, profiles...)...).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	self, err := profileSelfTime(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if fw, ok := m.workload.(*flowWorkload); ok && fw.ilp {
		if m.nodeSpread, err = fw.nodeSpread(ctx, runtime.NumCPU(), nodeSpreadRuns); err != nil {
			return err
		}
	}
	if err := m.layerMetrics(cfg.workload, tr, self, mem, ms); err != nil {
		return err
	}
	m.violations = append(m.violations, tr.violations...)
	return nil
}

// memDelta sums the allocator's work over the traced passes.
type memDelta struct {
	allocBytes, gcCycles, pauseNs uint64
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.gcCycles += uint64(after.NumGC - before.NumGC)
	d.pauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// nodeSpreadRuns is how many times a traced ilp-reference run solves each
// exact reference at workers=nproc to record the node-count spread.
const nodeSpreadRuns = 2

// layerMetrics computes the per-layer metrics, per traced pass, and the
// self-checks on layers the workload should leave idle.
func (m *measurement) layerMetrics(workload string, tr *tracer, self map[string]time.Duration, mem memDelta, ms *metricSet) error {
	n := float64(len(m.tracedPasses))
	c := func(name string) float64 { return float64(tr.counters[name]) }
	per := func(v float64) float64 { return v / n }
	callMS := func(name string) float64 { return per(float64(tr.calls[name]) / 1e6) }
	var untracedWalls, tracedWalls []float64
	for _, p := range m.passes {
		untracedWalls = append(untracedWalls, p.wall.Seconds())
	}
	for _, p := range m.tracedPasses {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	ilpSecs := tr.stageDur["reference"].Seconds()
	var spreadMin, spreadMax float64
	if len(m.nodeSpread) > 0 {
		s := append([]int64(nil), m.nodeSpread...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		spreadMin, spreadMax = float64(s[0]), float64(s[len(s)-1])
	}
	type lm struct {
		name, unit string
		v          float64
	}
	list := []lm{}
	for _, st := range []string{"schedule", "reference", "banloop", "outer", "finalize", "suitegen", "suitecampaign", "artifact"} {
		d := tr.spans[st]
		if st == core.StageArtifact {
			// A cache hit's artifact stage is synthesized after the lookup
			// it times; its span does not bracket the work.
			d = tr.stageDur[st]
		}
		list = append(list, lm{"core.stage." + st + "_s", "s", per(d.Seconds())})
	}
	list = append(list,
		lm{"core.reval.slowpath", "count", per(c("reval_slowpath"))},
		lm{"core.reval.recheck_sims", "count", per(c("reval_recheck_sims"))},
		lm{"core.aug_cache.hit_ratio", "ratio", ratio(tr.counters["aug_cache_hits"], tr.counters["aug_cache_misses"])},
		lm{"core.inner_cache.hit_ratio", "ratio", ratio(tr.counters["inner_cache_hits"], tr.counters["inner_cache_misses"])},
		lm{"core.ban_rounds", "count", per(c("ban_rounds"))},
		lm{"core.batch.shared_ratio", "ratio", share(tr.values["core.batch.shared"], tr.values["core.batch.jobs"])},
		lm{"sched.runs", "count", per(c("sched_warm_runs"))},
		lm{"sched.builds", "count", per(c("sched_engine_builds"))},
		lm{"sched.reroutes", "count", per(c("sched_fallback_reroutes"))},
		lm{"sched.reroutes_per_run", "ratio", share(c("sched_fallback_reroutes"), c("sched_warm_runs"))},
		lm{"sched.candidate_hits", "count", per(c("sched_candidate_hits"))},
		lm{"sched.validate_ms", "ms", callMS("sched.validate")},
		lm{"fault.campaigns", "count", per(c("fault_campaigns"))},
		lm{"fault.memo_hit_ratio", "ratio", ratio(tr.counters["fault_memo_hits"], tr.counters["fault_memo_misses"])},
		lm{"fault.screen_skips", "count", per(c("fault_screen_skips"))},
		lm{"fault.reach_checks", "count", per(c("fault_reach_checks"))},
		lm{"fault.bridge_checks", "count", per(c("fault_bridge_checks"))},
		lm{"fault.verify_ms", "ms", callMS("fault.verify")},
		lm{"testgen.tmpl_classes", "count", per(c("tmpl_classes"))},
		lm{"testgen.tmpl_cache_hits", "count", per(c("tmpl_cache_hits"))},
		lm{"testgen.tmpl_instantiated", "count", per(c("tmpl_instantiated"))},
		lm{"testgen.tmpl_fallbacks", "count", per(c("tmpl_fallbacks"))},
		lm{"testgen.chain_attempts", "count", per(c("chain_attempts"))},
		lm{"pso.outer_evals", "count", per(c("pso_outer_evals"))},
		lm{"pso.inner_evals", "count", per(c("pso_inner_evals"))},
		lm{"pso.iters", "count", per(float64(tr.iters))},
		lm{"ilp.nodes", "count", per(c("ilp_nodes"))},
		lm{"ilp.lazy_cuts", "count", per(c("ilp_lazy_cuts"))},
		lm{"ilp.steals", "count", per(c("ilp_steals"))},
		lm{"ilp.idle_waits", "count", per(c("ilp_idle_waits"))},
		lm{"ilp.requeued", "count", per(c("ilp_requeued"))},
		lm{"ilp.nodes_per_s", "1/s", share(c("ilp_nodes"), ilpSecs)},
		lm{"ilp.nodes_nproc_min", "count", spreadMin},
		lm{"ilp.nodes_nproc_max", "count", spreadMax},
		lm{"pressure.solves", "count", per(c("pressure_solves"))},
		lm{"pressure.warm_ratio", "ratio", share(c("pressure_warm"), c("pressure_solves"))},
		lm{"pressure.fallback_reach", "count", per(c("pressure_fallback_reach"))},
		lm{"artifact.mem_hits", "count", per(tr.values["artifact.mem_hits"])},
		lm{"artifact.disk_hits", "count", per(tr.values["artifact.disk_hits"])},
		lm{"artifact.misses", "count", per(tr.values["artifact.misses"])},
		lm{"artifact.digest_ms", "ms", callMS("artifact.digest")},
		lm{"artifact.load_ms", "ms", callMS("artifact.load")},
		lm{"artifact.decode_ms", "ms", callMS("artifact.decode")},
		lm{"runtime.alloc_mb", "MB", per(float64(mem.allocBytes) / 1e6)},
		lm{"runtime.gc_cycles", "count", per(float64(mem.gcCycles))},
		lm{"runtime.gc_pause_ms", "ms", per(float64(mem.pauseNs) / 1e6)},
	)
	for _, l := range cpuLayers {
		list = append(list, lm{"cpu." + l + "_s", "s", per(self[l].Seconds())})
	}
	list = append(list, lm{"trace.overhead_frac", "frac", median(tracedWalls)/median(untracedWalls) - 1})
	var errs []error
	for _, l := range list {
		errs = append(errs, ms.set(l.name, l.unit, l.v))
	}

	// Layers the workload's design keeps idle must read zero.
	idle := func(metric string, v float64) {
		if v != 0 {
			tr.violate("%s: %s predicted 0, read %v", workload, metric, v)
		}
	}
	if workload == "fpva-suite" || workload == "warm-rerun" {
		idle("sched.runs", c("sched_warm_runs"))
	}
	if workload == "table1" {
		for _, name := range []string{"artifact.mem_hits", "artifact.disk_hits", "artifact.misses"} {
			idle(name, tr.values[name])
		}
		for _, name := range []string{"artifact.digest", "artifact.load", "artifact.decode"} {
			idle(name+"_ms", callMS(name))
		}
	}
	if workload != "ilp-reference" {
		idle("ilp.nodes", c("ilp_nodes"))
	}
	return errors.Join(errs...)
}

// opMedians returns each operation kind's median latency in ms over the
// untraced passes.
func (m *measurement) opMedians() map[string]float64 {
	byOp := map[string][]float64{}
	for _, p := range m.passes {
		for _, op := range p.ops {
			byOp[op.name] = append(byOp[op.name], float64(op.latency)/1e6)
		}
	}
	med := map[string]float64{}
	for name, xs := range byOp {
		med[name] = median(xs)
	}
	return med
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// report is the run's human-readable record, printed before the result
// line: environment, sample counts, the tail latency by the percentile
// rule, failures, and the paper outputs per pass.
func (m *measurement) report(cfg config, setups []float64) map[string]any {
	passes := m.passes
	var lat, execPSO, dftValves, walls, cpus, steals []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		steals = append(steals, p.steal.Seconds())
		e, d := 0, 0
		for _, op := range p.ops {
			lat = append(lat, float64(op.latency)/1e6)
			e += op.execPSO
			d += op.dftValves
		}
		execPSO = append(execPSO, float64(e))
		dftValves = append(dftValves, float64(d))
	}
	r := map[string]any{
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"trace":           cfg.trace,
		"env":             environment(cfg.seed),
		"setup_runs_s":    setups,
		"passes":          len(passes),
		"traced_passes":   len(m.tracedPasses),
		"latency_samples": len(lat),
		"ops_failed_frac": m.counts.failedFrac(),
		// Paper outputs per pass (simulated seconds and counts); they
		// repeat exactly for a fixed seed.
		"exec_pso_s": median(execPSO),
		"dft_valves": median(dftValves),
	}
	medians := m.opMedians()
	r["op_latency_ms.p50"] = medians
	if g := geomean(medians); !math.IsNaN(g) {
		r["latency_ms.geomean"] = g
	}
	r["pass_wall_s"] = walls
	r["pass_cpu_s"] = cpus
	r["pass_steal_s"] = steals
	r["latency_ms.p50"] = median(lat)
	if p, ok := tailPercentile(len(lat)); ok {
		r["latency_ms.tail"] = map[string]float64{"percentile": p, "value": percentile(lat, p)}
	}
	if len(m.failures) > 0 {
		r["failures"] = m.failures
	}
	if len(m.violations) > 0 {
		r["self_check_violations"] = m.violations
	}
	if len(m.nodeSpread) > 0 {
		r["ilp_nodes_at_nproc"] = m.nodeSpread
	}
	return r
}

// environment records what the numbers were measured on.
func environment(seed int64) map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     "unknown",
		"seed":       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if sum, err := sourceDigest("."); err == nil {
		env["source_sha256"] = sum
	}
	return env
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// run identifies the code it measured even in a checkout without version
// control.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
