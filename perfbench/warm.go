package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/flowstage"
)

// warmFlowJobs are the flows the warm-rerun store holds: the six IVD/PID
// Table 1 combinations plus two PSO-seed variants, so a 32-job batch can
// carry 8 distinct jobs (75% duplicates). The CPA rows have the same
// payload shape and would triple set-up time.
var warmFlowJobs = []flowJob{
	{"IVD_chip", "IVD", paperSeed}, {"IVD_chip", "PID", paperSeed},
	{"RA30_chip", "IVD", paperSeed}, {"RA30_chip", "PID", paperSeed},
	{"mRNA_chip", "IVD", paperSeed}, {"mRNA_chip", "PID", paperSeed},
	{"IVD_chip", "IVD", paperSeed + 1}, {"IVD_chip", "PID", paperSeed + 1},
}

// warmSuiteGrids are the suites the warm-rerun store holds.
var warmSuiteGrids = suiteGrids[:3]

// The request deck of one warm-rerun pass, shuffled by the seed: every
// flow job is requested flowRequests times from each tier, every suite
// once from each tier, plus batchRequests batches of batchSize jobs.
const (
	flowRequests  = 4
	batchRequests = 2
	batchSize     = 32
)

// warmEntry is one stored artifact and how to request it.
type warmEntry struct {
	name  string
	kind  string // "flow" or "suite"
	chip  *chip.Chip
	assay *assay.Graph // nil for suites
	opts  core.Options // flows only
	// digest and canonical are the store key and the canonical encoding
	// of the set-up solve.
	digest    artifact.Digest
	canonical []byte
}

type requestKind int

const (
	diskHit  requestKind = iota // a fresh core.Cache over the store, as a new process
	memHit                      // the shared, warmed core.Cache
	batchReq                    // core.RunBatchCtx on the shared cache
)

type request struct {
	kind  requestKind
	entry int // index into entries; unused for batches
}

// warmWorkload serves cached results: a seeded stream of disk-tier hits,
// memory-tier hits and 75%-duplicate batches over a store that set-up
// fills with solves of the workload's jobs.
type warmWorkload struct {
	seed    int64
	workers int

	rng     *rand.Rand
	dir     string
	store   *artifact.Store
	shared  *core.Cache
	entries []warmEntry
	deck    []request
}

// warmDeck returns the pass's requests before shuffling.
func warmDeck(flows, suites int) []request {
	var deck []request
	for i := 0; i < flows+suites; i++ {
		n := 1
		if i < flows {
			n = flowRequests
		}
		for r := 0; r < n; r++ {
			deck = append(deck, request{diskHit, i}, request{memHit, i})
		}
	}
	for b := 0; b < batchRequests; b++ {
		deck = append(deck, request{kind: batchReq})
	}
	return deck
}

func (w *warmWorkload) setup(ctx context.Context) error {
	if err := w.close(); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(w.seed))
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.store, err = artifact.OpenStore(dir); err != nil {
		return err
	}
	solver, err := core.NewCache(core.CacheConfig{Dir: dir})
	if err != nil {
		return err
	}
	w.entries = w.entries[:0]
	for _, j := range warmFlowJobs {
		c, g, err := j.load()
		if err != nil {
			return err
		}
		opts := paperOptions(w.workers, false)
		opts.Seed = j.seed
		opts.Cache = solver
		res, err := core.RunDFTFlowCtx(ctx, c, g, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name(), err)
		}
		if err := checkFlow(ctx, c, g, opts, res, nil); err != nil {
			return fmt.Errorf("%s: %w", j.name(), err)
		}
		opts.Cache = nil
		e := warmEntry{name: fmt.Sprintf("%s@%d", j.name(), j.seed), kind: "flow", chip: c, assay: g, opts: opts}
		if err := w.finishEntry(&e, func() ([]byte, error) { return core.EncodeResult(res) }); err != nil {
			return err
		}
	}
	for _, sg := range warmSuiteGrids {
		c, err := chip.GenerateFPVA(sg.params(w.seed))
		if err != nil {
			return err
		}
		res, err := core.RunSuiteCtx(ctx, c, core.SuiteRunOptions{Workers: w.workers, Cache: solver})
		if err == nil {
			err = checkSuite(res)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sg.name(), err)
		}
		e := warmEntry{name: sg.name(), kind: "suite", chip: c}
		if err := w.finishEntry(&e, func() ([]byte, error) { return core.EncodeSuite(res.Suite, res.Coverage) }); err != nil {
			return err
		}
	}
	// The shared cache's memory tier is warmed by one request per entry.
	if w.shared, err = core.NewCache(core.CacheConfig{Dir: dir}); err != nil {
		return err
	}
	for i := range w.entries {
		s, err := w.serve(ctx, i, w.shared, nil)
		if err == nil {
			err = fromTier(s.stats, "disk")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.entries[i].name, err)
		}
	}
	w.deck = warmDeck(len(warmFlowJobs), len(warmSuiteGrids))
	return nil
}

// finishEntry records a solved entry's canonical encoding and its store
// key: the one artifact of its kind the solve added to the store.
func (w *warmWorkload) finishEntry(e *warmEntry, encode func() ([]byte, error)) error {
	var err error
	if e.canonical, err = encode(); err != nil {
		return fmt.Errorf("%s: encode: %w", e.name, err)
	}
	files, err := filepath.Glob(filepath.Join(w.dir, e.kind+"-*.art"))
	if err != nil {
		return err
	}
	known := map[artifact.Digest]bool{}
	for _, prev := range w.entries {
		known[prev.digest] = true
	}
	found := 0
	for _, f := range files {
		b, err := hex.DecodeString(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), e.kind+"-"), ".art"))
		if err != nil || len(b) != len(artifact.Digest{}) {
			return fmt.Errorf("unexpected store file %s", f)
		}
		if d := artifact.Digest(b); !known[d] {
			e.digest = d
			found++
		}
	}
	if found != 1 {
		return fmt.Errorf("%s: set-up solve stored %d new %s artifacts, want 1", e.name, found, e.kind)
	}
	w.entries = append(w.entries, *e)
	return nil
}

// served is one warm request's outcome.
type served struct {
	stats  *flowstage.Stats
	encode func() ([]byte, error)
	// Outputs of the paper carried by the served result.
	execPSO, dftValves, vectors int
}

// serve requests entry i through cache.
func (w *warmWorkload) serve(ctx context.Context, i int, cache *core.Cache, obs *spanObserver) (served, error) {
	e := &w.entries[i]
	if e.kind == "flow" {
		opts := e.opts
		opts.Cache = cache
		opts.Observer = asObserver(obs)
		res, err := core.RunDFTFlowCtx(ctx, e.chip, e.assay, opts)
		if err == nil {
			err = flowResultErr(res)
		}
		if err != nil {
			return served{}, err
		}
		return served{res.Stats, func() ([]byte, error) { return core.EncodeResult(res) },
			res.ExecPSO, res.NumDFTValves, res.NumTestVectors}, nil
	}
	res, err := core.RunSuiteCtx(ctx, e.chip, core.SuiteRunOptions{Workers: w.workers, Cache: cache, Observer: asObserver(obs)})
	if err == nil {
		err = checkSuite(res)
	}
	if err != nil {
		return served{}, err
	}
	return served{res.Stats, func() ([]byte, error) { return core.EncodeSuite(res.Suite, res.Coverage) },
		0, 0, len(res.Suite.Paths) + len(res.Suite.Cuts)}, nil
}

// fromTier reports whether a run was served by the cache tier ("mem" or
// "disk") alone, without solving.
func fromTier(st *flowstage.Stats, tier string) error {
	if st == nil || len(st.Stages) != 1 || st.Stages[0].Name != core.StageArtifact ||
		st.Stages[0].Counter("art_"+tier+"_hits") != 1 {
		return fmt.Errorf("not served from the %s tier", tier)
	}
	return nil
}

// sink keeps the results of timed direct calls alive.
var sink artifact.Digest

// timeDirect times the layers under a hit by calling them directly:
// digesting the inputs, loading the stored payload and decoding it.
func (w *warmWorkload) timeDirect(e *warmEntry, tr *tracer) error {
	tr.timeCall("artifact.digest", func() {
		sink = artifact.HashChip(e.chip)
		if e.assay != nil {
			sink = artifact.HashAssay(e.assay)
		}
	})
	var payload []byte
	var ok bool
	tr.timeCall("artifact.load", func() { payload, ok = w.store.Get(e.kind, e.digest) })
	if !ok {
		return fmt.Errorf("%s: stored artifact missing", e.name)
	}
	var err error
	tr.timeCall("artifact.decode", func() {
		if e.kind == "flow" {
			_, err = core.DecodeResult(e.chip, payload)
		} else {
			_, _, err = core.DecodeSuite(e.chip, payload)
		}
	})
	return err
}

// addCacheMetrics records cache traffic between two snapshots.
func addCacheMetrics(tr *tracer, before, after core.CacheMetrics) {
	tr.value("artifact.mem_hits", float64(after.MemHits-before.MemHits))
	tr.value("artifact.disk_hits", float64(after.DiskHits-before.DiskHits))
	tr.value("artifact.misses", float64(after.Misses-before.Misses))
}

// requests returns the next pass's requests in the seed's order.
func (w *warmWorkload) requests() []request {
	deck := make([]request, len(w.deck))
	for k, i := range w.rng.Perm(len(w.deck)) {
		deck[k] = w.deck[i]
	}
	return deck
}

// batchEntries returns the entries of the next batch in the seed's order:
// every flow entry batchSize/len(warmFlowJobs) times.
func (w *warmWorkload) batchEntries() []int {
	var base []int
	for i := range w.entries {
		if w.entries[i].kind == "flow" {
			for r := 0; r < batchSize/len(warmFlowJobs); r++ {
				base = append(base, i)
			}
		}
	}
	idx := make([]int, len(base))
	for k, i := range w.rng.Perm(len(base)) {
		idx[k] = base[i]
	}
	return idx
}

func (w *warmWorkload) pass(ctx context.Context, tr *tracer) []opRecord {
	deck := w.requests()
	recs := make([]opRecord, 0, len(deck))
	for _, rq := range deck {
		if rq.kind == batchReq {
			recs = append(recs, w.batch(ctx, tr))
			continue
		}
		e := &w.entries[rq.entry]
		obs := tr.observer()
		tier := "mem"
		var before core.CacheMetrics
		if tr != nil {
			before = w.shared.Metrics()
		}
		t0 := time.Now()
		cache, err := w.shared, error(nil)
		if rq.kind == diskHit {
			tier = "disk"
			cache, err = core.NewCache(core.CacheConfig{Dir: w.dir})
		}
		var s served
		if err == nil {
			s, err = w.serve(ctx, rq.entry, cache, obs)
		}
		rec := opRecord{name: tier + ":" + e.name, latency: time.Since(t0)}
		if err == nil {
			err = fromTier(s.stats, tier)
		}
		if err != nil {
			rec.err = fmt.Errorf("%s: %w", rec.name, err)
			recs = append(recs, rec)
			continue
		}
		if tr != nil {
			if rq.kind == diskHit {
				before = core.CacheMetrics{}
			}
			addCacheMetrics(tr, before, cache.Metrics())
			tr.addOp(rec.name, obs, s.stats)
		}
		rec.execPSO, rec.dftValves, rec.vectors = s.execPSO, s.dftValves, s.vectors
		rec.check = func(tr *tracer) error {
			got, err := s.encode()
			if err != nil {
				return fmt.Errorf("%s: encode: %w", rec.name, err)
			}
			if err := sameBytes(rec.name, got, e.canonical); err != nil {
				return err
			}
			if tr != nil {
				return w.timeDirect(e, tr)
			}
			return nil
		}
		recs = append(recs, rec)
	}
	return recs
}

// batch submits one batch of batchEntries through the shared cache.
func (w *warmWorkload) batch(ctx context.Context, tr *tracer) opRecord {
	idx := w.batchEntries()
	jobs := make([]core.BatchJob, len(idx))
	for k, i := range idx {
		e := &w.entries[i]
		jobs[k] = core.BatchJob{Chip: e.chip, Assay: e.assay, Opts: e.opts}
	}
	var before core.CacheMetrics
	if tr != nil {
		before = w.shared.Metrics()
	}
	t0 := time.Now()
	out := core.RunBatchCtx(ctx, jobs, core.BatchOptions{Parallel: w.workers, Cache: w.shared})
	rec := opRecord{name: "batch", latency: time.Since(t0)}
	shared := 0
	for k, r := range out {
		if r.Err == nil {
			r.Err = flowResultErr(r.Result)
		}
		if r.Err != nil {
			rec.err = fmt.Errorf("batch job %d (%s): %w", k, w.entries[idx[k]].name, r.Err)
			return rec
		}
		if r.Shared {
			shared++
		}
		rec.execPSO += r.Result.ExecPSO
		rec.dftValves += r.Result.NumDFTValves
		rec.vectors += r.Result.NumTestVectors
	}
	if tr != nil {
		addCacheMetrics(tr, before, w.shared.Metrics())
		for _, r := range out {
			tr.addOp("batch", nil, r.Result.Stats)
		}
		tr.value("core.batch.shared", float64(shared))
		tr.value("core.batch.jobs", float64(len(out)))
	}
	rec.check = func(*tracer) error {
		if want := len(idx) - len(warmFlowJobs); shared != want {
			return fmt.Errorf("batch: %d jobs shared a solve, want %d", shared, want)
		}
		for k, r := range out {
			got, err := core.EncodeResult(r.Result)
			if err != nil {
				return fmt.Errorf("batch job %d: encode: %w", k, err)
			}
			if err := sameBytes(fmt.Sprintf("batch job %d", k), got, w.entries[idx[k]].canonical); err != nil {
				return err
			}
		}
		return nil
	}
	return rec
}

func (w *warmWorkload) close() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}
