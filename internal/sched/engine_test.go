package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

// designs returns the three bundled (chip, assay) pairs the paper evaluates.
func designs() []struct {
	name  string
	chip  *chip.Chip
	graph *assay.Graph
} {
	return []struct {
		name  string
		chip  *chip.Chip
		graph *assay.Graph
	}{
		{"IVD", chip.IVD(), assay.IVD()},
		{"RA30", chip.RA30(), assay.PID()},
		{"mRNA", chip.MRNA(), assay.CPA()},
	}
}

// augmented clones c and adds n DFT channels on the first free edges, so
// SharedControl has test valves to pair.
func augmented(t *testing.T, c *chip.Chip, n int) *chip.Chip {
	t.Helper()
	out := c.Clone()
	added := 0
	for e := 0; e < out.Grid.NumEdges() && added < n; e++ {
		if _, occ := out.ValveOnEdge(e); occ {
			continue
		}
		if _, err := out.AddDFTChannel(e); err != nil {
			t.Fatalf("AddDFTChannel: %v", err)
		}
		added++
	}
	if added < n {
		t.Fatalf("only %d of %d DFT channels fit", added, n)
	}
	return out
}

// randControl pairs each DFT valve with a random distinct original valve
// (or leaves it on a fresh line).
func randControl(t *testing.T, rng *rand.Rand, c *chip.Chip) *chip.Control {
	t.Helper()
	nOrig := c.NumOriginalValves()
	partner := make([]int, c.NumDFTValves())
	used := make(map[int]bool)
	for i := range partner {
		partner[i] = -1
		if rng.Intn(2) == 0 {
			p := rng.Intn(nOrig)
			if !used[p] {
				used[p] = true
				partner[i] = p
			}
		}
	}
	ctrl, err := chip.SharedControl(c, partner)
	if err != nil {
		t.Fatalf("SharedControl(%v): %v", partner, err)
	}
	return ctrl
}

// randBans draws up to maxN distinct valves from the chip's range.
func randBans(rng *rand.Rand, c *chip.Chip, maxN int) []int {
	n := rng.Intn(maxN + 1)
	out := make([]int, 0, n)
	seen := make(map[int]bool)
	for len(out) < n {
		v := rng.Intn(c.NumValves())
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// checkSameRun asserts the engine and the baseline agree bit for bit: same
// error disposition, same progress count, and — on success — deeply equal
// schedules (ops, transports, edges, wash counts). The one sanctioned
// difference is a livelock: the engine stops at the repeated state where
// the baseline simulates on to the horizon, so there the baseline's error
// must be the horizon exit (progress was compared above).
func checkSameRun(t *testing.T, label string, c *chip.Chip, ctrl *chip.Control, g *assay.Graph, p Params) {
	t.Helper()
	eng, err := NewEngine(c, g, p)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	warm, warmDone, warmErr := eng.RunProgress(ctrl, p)
	base, baseDone, baseErr := RunProgressBaseline(c, ctrl, g, p)
	if (warmErr == nil) != (baseErr == nil) {
		t.Fatalf("%s: error disposition differs: engine=%v baseline=%v", label, warmErr, baseErr)
	}
	if warmDone != baseDone {
		t.Fatalf("%s: progress differs: engine=%d baseline=%d", label, warmDone, baseDone)
	}
	if errors.Is(warmErr, ErrLivelock) {
		if !strings.Contains(baseErr.Error(), "exceeded time horizon") {
			t.Fatalf("%s: engine livelock, but baseline error is not the horizon exit: %v", label, baseErr)
		}
		if warm != nil || base != nil {
			t.Fatalf("%s: failed run returned a schedule: engine=%v baseline=%v", label, warm != nil, base != nil)
		}
		return
	}
	if warmErr != nil {
		if warmErr.Error() != baseErr.Error() {
			t.Fatalf("%s: error text differs:\n engine:   %v\n baseline: %v", label, warmErr, baseErr)
		}
		return
	}
	if !reflect.DeepEqual(warm, base) {
		t.Fatalf("%s: schedules differ:\n engine:   %+v\n baseline: %+v", label, warm, base)
	}
	// Second warm run on the same engine must reproduce the schedule (pool
	// reuse and candidate-cache hits must not perturb anything).
	again, err := eng.Run(ctrl, p)
	if err != nil {
		t.Fatalf("%s: second engine run failed: %v", label, err)
	}
	if !reflect.DeepEqual(again, base) {
		t.Fatalf("%s: second engine run diverged from baseline", label)
	}
}

// TestEngineMatchesBaselineDesigns drives the property on all bundled
// designs under independent and randomized shared control, with and without
// the wash model, and under randomized ban sets.
func TestEngineMatchesBaselineDesigns(t *testing.T) {
	for _, d := range designs() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(2018 ^ int64(len(d.name))))
			aug := augmented(t, d.chip, 4)

			// Independent control, pristine chip, default params.
			checkSameRun(t, d.name+"/indep", d.chip, nil, d.graph, Params{})

			// Wash model on (nonzero WashTimePerEdge exercises duration
			// accounting on every transport).
			checkSameRun(t, d.name+"/wash", d.chip, nil, d.graph, Params{WashTimePerEdge: 3})

			// Randomized shared control on the augmented chip.
			for trial := 0; trial < 4; trial++ {
				ctrl := randControl(t, rng, aug)
				p := Params{}
				if trial%2 == 1 {
					p.WashTimePerEdge = 2
				}
				checkSameRun(t, fmt.Sprintf("%s/shared%d", d.name, trial), aug, ctrl, d.graph, p)
			}

			// Randomized ban sets (stuck-closed and stuck-open valves);
			// schedulable or not, both paths must agree.
			for trial := 0; trial < 4; trial++ {
				p := Params{
					BanClosed: randBans(rng, aug, 2),
					BanOpen:   randBans(rng, aug, 2),
				}
				ctrl := randControl(t, rng, aug)
				checkSameRun(t, fmt.Sprintf("%s/ban%d", d.name, trial), aug, ctrl, d.graph, p)
			}
		})
	}
}

// TestEngineRejectsForeignBans: an engine is built for one ban-set; runs
// naming a different set must fail loudly instead of silently using the
// baked-in routing state.
func TestEngineRejectsForeignBans(t *testing.T) {
	c, g := chip.IVD(), assay.IVD()
	eng, err := NewEngine(c, g, Params{BanClosed: []int{3}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Run(nil, Params{BanClosed: []int{3}}); err != nil {
		t.Fatalf("matching ban-set rejected: %v", err)
	}
	if _, err := eng.Run(nil, Params{BanClosed: []int{4}}); err == nil {
		t.Fatalf("foreign ban-set accepted")
	}
	if _, err := eng.Run(nil, Params{}); err == nil {
		t.Fatalf("empty ban-set accepted by banned engine")
	}
	// Duplicates and out-of-range entries canonicalize away.
	if _, err := eng.Run(nil, Params{BanClosed: []int{3, 3, -7, c.NumValves() + 5}}); err != nil {
		t.Fatalf("canonically equal ban-set rejected: %v", err)
	}
}

// TestEngineRejectsForeignControl mirrors the package-level chip check.
func TestEngineRejectsForeignControl(t *testing.T) {
	eng, err := NewEngine(chip.IVD(), assay.IVD(), Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	other := chip.IVD()
	if _, err := eng.Run(chip.IndependentControl(other), Params{}); err == nil {
		t.Fatalf("control for a different chip accepted")
	}
}

// TestEngineConcurrentRuns shares one engine across goroutines evaluating
// different control assignments — the PSO fitness-worker pattern. Run with
// -race in CI; every result must equal the baseline's.
func TestEngineConcurrentRuns(t *testing.T) {
	c, g := chip.RA30(), assay.PID()
	aug := augmented(t, c, 4)
	eng, err := NewEngine(aug, g, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	m := NewMetrics()
	eng.SetMetrics(m)

	rng := rand.New(rand.NewSource(42))
	const nCtrl = 6
	ctrls := make([]*chip.Control, nCtrl)
	want := make([]*Schedule, nCtrl)
	for i := range ctrls {
		ctrls[i] = randControl(t, rng, aug)
		sch, _, err := RunProgressBaseline(aug, ctrls[i], g, Params{})
		if err != nil {
			t.Fatalf("baseline ctrl %d: %v", i, err)
		}
		want[i] = sch
	}

	var wg sync.WaitGroup
	errs := make(chan error, nCtrl*4)
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < nCtrl; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sch, err := eng.Run(ctrls[i], Params{})
				if err != nil {
					errs <- fmt.Errorf("ctrl %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(sch, want[i]) {
					errs <- fmt.Errorf("ctrl %d: concurrent schedule diverged", i)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := m.Snapshot()
	if snap.EngineBuilds != 1 {
		t.Errorf("EngineBuilds = %d, want 1", snap.EngineBuilds)
	}
	if snap.WarmRuns != nCtrl*4 {
		t.Errorf("WarmRuns = %d, want %d", snap.WarmRuns, nCtrl*4)
	}
}

// TestEngineCandidateCacheCounts: on a pristine chip the very first
// transports of a second run are served from the candidate cache.
func TestEngineCandidateCacheCounts(t *testing.T) {
	c, g := chip.IVD(), assay.IVD()
	eng, err := NewEngine(c, g, Params{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	m := NewMetrics()
	eng.SetMetrics(m)
	if _, err := eng.Run(nil, Params{}); err != nil {
		t.Fatalf("first run: %v", err)
	}
	first := m.Snapshot()
	if _, err := eng.Run(nil, Params{}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	second := m.Snapshot().Sub(first)
	if second.CandidateHits == 0 {
		t.Fatalf("second run on a warm engine recorded no candidate hits")
	}
}
