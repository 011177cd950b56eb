package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/solve"
)

// A cached flow result must be byte-identical to a fresh solve under the
// canonical encoding, from both the memory and the disk tier, on every
// bundled design. Either hit must collapse the run to the single artifact
// stage: no solver stage runs at all.
func TestFlowCacheBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		chip  func() *chip.Chip
		assay func() *assay.Graph
	}{
		{chip.IVD, assay.IVD},
		{chip.RA30, assay.PID},
		{chip.MRNA, assay.CPA},
	} {
		t.Run(tc.chip().Name, func(t *testing.T) {
			checkFlowCacheBitIdentity(t, tc.chip, tc.assay)
		})
	}
}

func checkFlowCacheBitIdentity(t *testing.T, newChip func() *chip.Chip, newAssay func() *assay.Graph) {
	dir := t.TempDir()
	opts := smallOpts(11)

	fresh, err := RunDFTFlow(newChip(), newAssay(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeResult(fresh)
	if err != nil {
		t.Fatal(err)
	}

	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cc
	cold, err := RunDFTFlow(newChip(), newAssay(), opts)
	if err != nil {
		t.Fatal(err)
	}
	coldEnc, _ := EncodeResult(cold)
	if !bytes.Equal(coldEnc, want) {
		t.Fatal("cold cached run differs from uncached run")
	}
	memHit, err := RunDFTFlow(newChip(), newAssay(), opts)
	if err != nil {
		t.Fatal(err)
	}
	memEnc, _ := EncodeResult(memHit)
	if !bytes.Equal(memEnc, want) {
		t.Fatal("memory-tier hit differs from fresh solve")
	}
	assertArtifactStageOnly(t, memHit, "art_mem_hits")

	// A second process: fresh cache over the same directory = disk tier.
	cc2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = cc2
	diskHit, err := RunDFTFlow(newChip(), newAssay(), opts)
	if err != nil {
		t.Fatal(err)
	}
	diskEnc, _ := EncodeResult(diskHit)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-tier hit differs from fresh solve")
	}
	assertArtifactStageOnly(t, diskHit, "art_disk_hits")
	m := cc2.Metrics()
	if m.DiskHits != 1 || m.MemHits != 0 || m.Misses != 0 {
		t.Fatalf("unexpected warm-run metrics: %+v", m)
	}
}

// assertArtifactStageOnly checks that a cache hit reports exactly one
// artifact stage carrying the given hit counter at 1.
func assertArtifactStageOnly(t *testing.T, res *Result, hitCounter string) {
	t.Helper()
	if res.Stats == nil || len(res.Stats.Stages) != 1 || res.Stats.Stages[0].Name != StageArtifact {
		t.Fatalf("cache hit should report a single artifact stage, got %+v", res.Stats)
	}
	if res.Stats.Stages[0].Counters[hitCounter] != 1 {
		t.Fatalf("missing %s counter: %+v", hitCounter, res.Stats.Stages[0].Counters)
	}
}

// Uncacheable option sets (injections, optional stages) must bypass the
// cache entirely.
func TestFlowCacheSkipsUncacheable(t *testing.T) {
	cc, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts(12)
	opts.Cache = cc
	opts.Inject = []solve.Injection{{Tier: "heuristic", Kind: solve.FaultTimeout}}
	if _, err := RunDFTFlow(chip.IVD(), assay.IVD(), opts); err != nil {
		t.Fatal(err)
	}
	m := cc.Metrics()
	if m.Misses != 0 || m.Stores != 0 || m.MemHits != 0 {
		t.Fatalf("uncacheable run touched the cache: %+v", m)
	}
}

// Memo eviction under a tiny MemoBytes budget must not change the Result:
// all selection state lives in the non-evictable summary registry and
// recomputes are pure.
func TestFlowMemoEvictionInvariant(t *testing.T) {
	unbounded, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(13))
	if err != nil {
		t.Fatal(err)
	}
	tight := smallOpts(13)
	tight.MemoBytes = 4 << 10 // a few entries at most
	bounded, err := RunDFTFlow(chip.IVD(), assay.IVD(), tight)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := EncodeResult(unbounded)
	b, _ := EncodeResult(bounded)
	if !bytes.Equal(a, b) {
		t.Fatal("bounded-memo run differs from unbounded run")
	}
	evicted := false
	for _, st := range bounded.Stats.Stages {
		if st.Counters["memo_evictions"] > 0 {
			evicted = true
		}
	}
	if !evicted {
		t.Skip("budget did not trigger eviction on this design; invariant vacuous")
	}
}

// RunBatch must collapse duplicate submissions to one solve and fan out
// results bit-identical to serial runs, for every worker count, with
// identical deterministic cache counters.
func TestRunBatchDedupDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seeds := []int64{21, 22}
	var jobs []BatchJob
	for i := 0; i < 12; i++ {
		jobs = append(jobs, BatchJob{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(seeds[i%len(seeds)])})
	}
	// Serial reference.
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		res, err := RunDFTFlow(j.Chip, j.Assay, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = EncodeResult(res)
	}
	var wantMetrics *CacheMetrics
	for _, par := range []int{1, 2, 4, 8} {
		cc, err := NewCache(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		out := RunBatch(jobs, BatchOptions{Parallel: par, Cache: cc})
		shared := 0
		for i, r := range out {
			if r.Err != nil {
				t.Fatalf("par=%d job %d: %v", par, i, r.Err)
			}
			enc, _ := EncodeResult(r.Result)
			if !bytes.Equal(enc, want[i]) {
				t.Fatalf("par=%d job %d differs from serial run", par, i)
			}
			if r.Key == "" {
				t.Fatalf("par=%d job %d: missing digest key", par, i)
			}
			if r.Shared {
				shared++
			}
		}
		if shared != len(jobs)-len(seeds) {
			t.Fatalf("par=%d: %d shared results, want %d", par, shared, len(jobs)-len(seeds))
		}
		m := cc.Metrics()
		if wantMetrics == nil {
			wantMetrics = &m
		} else if m.MemHits != wantMetrics.MemHits || m.DiskHits != wantMetrics.DiskHits ||
			m.Misses != wantMetrics.Misses || m.Stores != wantMetrics.Stores {
			t.Fatalf("par=%d: metrics %+v differ from par=1 %+v", par, m, *wantMetrics)
		}
	}
	if wantMetrics.Misses != int64(len(seeds)) || wantMetrics.Stores != int64(len(seeds)) {
		t.Fatalf("batch should miss+store once per unique digest: %+v", *wantMetrics)
	}
}

// Admission control: unique solves beyond MaxPending are rejected with
// ErrBatchSaturated; duplicates of admitted solves always pass.
func TestRunBatchSaturation(t *testing.T) {
	jobs := []BatchJob{
		{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(31)},
		{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(31)}, // dup of 0
		{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(32)}, // 2nd unique: rejected
	}
	out := RunBatch(jobs, BatchOptions{MaxPending: 1})
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("admitted jobs failed: %v / %v", out[0].Err, out[1].Err)
	}
	if !out[1].Shared {
		t.Fatal("duplicate job not marked shared")
	}
	if !errors.Is(out[2].Err, ErrBatchSaturated) {
		t.Fatalf("job 2: got %v, want ErrBatchSaturated", out[2].Err)
	}
}

// Dup-heavy concurrent batch for the -race detector: duplicates share
// one solve and fan out decoded copies.
func TestRunBatchDupHeavyRace(t *testing.T) {
	var jobs []BatchJob
	for i := 0; i < 16; i++ {
		jobs = append(jobs, BatchJob{Chip: chip.IVD(), Assay: assay.IVD(), Opts: smallOpts(int64(41 + i%4))})
	}
	cc, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := RunBatchCtx(context.Background(), jobs, BatchOptions{Parallel: 8, Cache: cc})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Result == nil {
			t.Fatalf("job %d: nil result", i)
		}
	}
}

// The suite pipeline's cache hits must decode to the same vectors as a
// fresh generation, across both tiers.
func TestSuiteCacheRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "art")
	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := chip.IVD()
	fresh, err := RunSuite(c, SuiteRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeSuite(fresh.Suite, fresh.Coverage)

	cold, err := RunSuite(c, SuiteRunOptions{Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	coldEnc, _ := EncodeSuite(cold.Suite, cold.Coverage)
	if !bytes.Equal(coldEnc, want) {
		t.Fatal("cold cached suite differs from fresh")
	}
	hit, err := RunSuite(c, SuiteRunOptions{Cache: cc})
	if err != nil {
		t.Fatal(err)
	}
	hitEnc, _ := EncodeSuite(hit.Suite, hit.Coverage)
	if !bytes.Equal(hitEnc, want) {
		t.Fatal("memory-tier suite hit differs from fresh")
	}
	if len(hit.Stats.Stages) != 1 || hit.Stats.Stages[0].Name != StageArtifact {
		t.Fatalf("suite hit should report single artifact stage: %+v", hit.Stats)
	}

	cc2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := RunSuite(c, SuiteRunOptions{Cache: cc2})
	if err != nil {
		t.Fatal(err)
	}
	diskEnc, _ := EncodeSuite(disk.Suite, disk.Coverage)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-tier suite hit differs from fresh")
	}
}

// The standalone test-set artifact (faultsim/chipinfo) round-trips
// through both tiers.
func TestBuildTestSetCache(t *testing.T) {
	dir := t.TempDir()
	cc, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildTestSet(chip.IVD(), false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := EncodeTestSet(fresh)

	cold, err := BuildTestSet(chip.IVD(), false, 0, cc)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Tier != "" {
		t.Fatalf("cold run reported tier %q", cold.Tier)
	}
	coldEnc, _ := EncodeTestSet(cold)
	if !bytes.Equal(coldEnc, want) {
		t.Fatal("cold cached test set differs from fresh")
	}
	mem, err := BuildTestSet(chip.IVD(), false, 0, cc)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Tier != "mem" {
		t.Fatalf("second run tier %q, want mem", mem.Tier)
	}
	memEnc, _ := EncodeTestSet(mem)
	if !bytes.Equal(memEnc, want) {
		t.Fatal("memory-tier test set differs from fresh")
	}
	cc2, err := NewCache(CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := BuildTestSet(chip.IVD(), false, 0, cc2)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Tier != "disk" {
		t.Fatalf("fresh-process run tier %q, want disk", disk.Tier)
	}
	diskEnc, _ := EncodeTestSet(disk)
	if !bytes.Equal(diskEnc, want) {
		t.Fatal("disk-tier test set differs from fresh")
	}
	// The optimal flag is part of the digest: no false sharing.
	opt, err := BuildTestSet(chip.IVD(), true, 0, cc2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Tier != "" {
		t.Fatalf("optimal run must not hit the greedy entry (tier %q)", opt.Tier)
	}
	if !opt.Optimal {
		t.Fatal("optimal flag lost")
	}
}
