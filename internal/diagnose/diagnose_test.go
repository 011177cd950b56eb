package diagnose

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/solve"
	"repro/internal/testgen"
)

func chipXY(x, y int) grid.Coord { return grid.Coord{X: x, Y: y} }

// buildMatrix assembles the detection matrix of a chip's multi-instrument
// baseline vectors over the full stuck-at fault list.
func buildMatrix(t *testing.T, c *chip.Chip, workers int) *fault.DetectionMatrix {
	t.Helper()
	paths, cuts, err := testgen.BaselineVectors(c)
	if err != nil {
		t.Fatal(err)
	}
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	m, err := fault.NewEngine(sim, workers).DetectionMatrix(context.Background(), append(paths, cuts...), fault.AllFaults(c))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Every single fault on every bundled design must be localized to a
// suspect set exactly equal to its signature-equivalence class, using
// strictly fewer applied vectors than an exhaustive replay — the paper's
// acceptance bar for the adaptive engine.
func TestLocalizationEqualsEquivalenceClass(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		m := buildMatrix(t, c, 0)
		p := &Planner{Matrix: m}
		diags, err := p.Campaign(context.Background(), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, d := range diags {
			if d.Err != nil {
				t.Fatalf("%s %v: %v", c.Name, d.Fault, d.Err)
			}
			if !d.Localized() {
				t.Fatalf("%s %v: true fault not among suspects %v", c.Name, d.Fault, d.Result.Suspects)
			}
			class := EquivalenceClass(m, d.FaultIndex)
			if !reflect.DeepEqual(d.Result.Suspects, class) {
				t.Fatalf("%s %v: suspects %v != equivalence class %v", c.Name, d.Fault, d.Result.Suspects, class)
			}
			if got, max := d.Result.VectorsApplied(), m.NumUsable(); got >= max {
				t.Fatalf("%s %v: adaptive used %d vectors, exhaustive replay is %d — no saving", c.Name, d.Fault, got, max)
			}
			if d.Provenance.Name != TierAdaptive || d.Provenance.Degraded {
				t.Fatalf("%s %v: expected un-degraded adaptive tier, got %q degraded=%v", c.Name, d.Fault, d.Provenance.Name, d.Provenance.Degraded)
			}
		}
		t.Logf("%s: %d faults localized, exhaustive=%d vectors", c.Name, len(diags), m.NumUsable())
	}
}

// stripTimes removes the wall-clock fields so campaign outputs can be
// compared bit-for-bit across worker counts.
func stripTimes(diags []FaultDiagnosis) []FaultDiagnosis {
	out := append([]FaultDiagnosis(nil), diags...)
	for i := range out {
		out[i].Provenance.Attempts = append([]solve.Attempt(nil), out[i].Provenance.Attempts...)
		for j := range out[i].Provenance.Attempts {
			out[i].Provenance.Attempts[j].Elapsed = 0
		}
	}
	return out
}

// The (suspects, vector order) of every fault must be bit-identical for
// 1, 2, 4 and 8 workers — matrix build and campaign alike.
func TestCampaignWorkerCountInvariant(t *testing.T) {
	c := chip.RA30()
	ref := buildMatrix(t, c, 1)
	want, err := (&Planner{Matrix: ref}).Campaign(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want = stripTimes(want)
	for _, workers := range []int{2, 4, 8} {
		m := buildMatrix(t, c, workers)
		for v := 0; v < ref.NumVectors(); v++ {
			if !reflect.DeepEqual(ref.Row(v), m.Row(v)) {
				t.Fatalf("workers=%d: matrix row %d differs", workers, v)
			}
		}
		got, err := (&Planner{Matrix: m}).Campaign(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(got), want) {
			t.Fatalf("workers=%d: campaign differs from serial", workers)
		}
	}
}

// twoInSeries builds P0 -v0- M -v1- P1: the only path uses both valves,
// so stuck-at-0 on v0 and v1 are signature-equivalent and diagnosis must
// report both, in the documented lexicographic (Kind, Valve) order.
func twoInSeries(t *testing.T) *chip.Chip {
	t.Helper()
	b := chip.NewBuilder("series", 3, 2)
	b.AddPort("P0", chipXY(0, 0))
	b.AddDevice(chip.Mixer, "M", chipXY(1, 0))
	b.AddPort("P1", chipXY(2, 0))
	b.AddChannel(chipXY(0, 0), chipXY(1, 0), chipXY(2, 0))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAmbiguousSuspectsStableOrder(t *testing.T) {
	c := twoInSeries(t)
	m := buildMatrix(t, c, 1)
	p := &Planner{Matrix: m}
	// Diagnose the chip carrying stuck-at-0 on valve 1; valve 0's
	// stuck-at-0 is indistinguishable on a two-port series chain.
	var target int
	found := false
	for f := 0; f < m.NumFaults(); f++ {
		if m.Fault(f) == (fault.Fault{Kind: fault.StuckAt0, Valve: 1}) {
			target, found = f, true
		}
	}
	if !found {
		t.Fatal("stuck-at-0@v1 not in fault list")
	}
	out, err := p.Run(context.Background(), InjectedOracle(m, target))
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Fault{{Kind: fault.StuckAt0, Valve: 0}, {Kind: fault.StuckAt0, Valve: 1}}
	if !reflect.DeepEqual(out.Value.Suspects, want) {
		t.Fatalf("suspects %v, want lexicographic %v", out.Value.Suspects, want)
	}
	// Property: serial and parallel campaigns agree on the ambiguous set.
	serial, err := p.Campaign(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := p.Campaign(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTimes(serial), stripTimes(parallel)) {
		t.Fatal("serial and parallel campaigns disagree")
	}
}

// A vector budget smaller than the localization needs must degrade
// adaptive -> greedy -> replay, with the budget failures classified as
// the tiers' infeasibility, and still localize via replay.
func TestBudgetDegradesToReplay(t *testing.T) {
	c := chip.IVD()
	m := buildMatrix(t, c, 0)
	p := &Planner{Matrix: m, VectorBudget: 1}
	out, err := p.Run(context.Background(), InjectedOracle(m, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != TierReplay || !out.Degraded {
		t.Fatalf("expected degraded replay result, got %q degraded=%v", out.Name, out.Degraded)
	}
	if len(out.Attempts) != 3 {
		t.Fatalf("expected 3 attempts, got %d", len(out.Attempts))
	}
	for _, att := range out.Attempts[:2] {
		if att.Reason != solve.ReasonInfeasible || !errors.Is(att.Err, ErrBudget) {
			t.Fatalf("tier %s: reason %s err %v, want infeasible/ErrBudget", att.Name, att.Reason, att.Err)
		}
	}
	class := EquivalenceClass(m, 0)
	if !reflect.DeepEqual(out.Value.Suspects, class) {
		t.Fatalf("replay suspects %v != class %v", out.Value.Suspects, class)
	}
}

// Injected tier faults must exercise the degradation chain exactly like
// the augmentation chain: timeout and panic at the upper tiers leave the
// replay result intact.
func TestInjectedTierFaults(t *testing.T) {
	c := chip.IVD()
	m := buildMatrix(t, c, 0)
	inject, err := solve.ParseInjections("diagnose-adaptive:timeout,diagnose-greedy:panic")
	if err != nil {
		t.Fatal(err)
	}
	p := &Planner{Matrix: m, Inject: inject}
	out, err := p.Run(context.Background(), InjectedOracle(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != TierReplay {
		t.Fatalf("expected replay result, got %q", out.Name)
	}
	if out.Attempts[0].Reason != solve.ReasonTimeout || out.Attempts[1].Reason != solve.ReasonPanic {
		t.Fatalf("attempt reasons %s,%s, want timeout,panic", out.Attempts[0].Reason, out.Attempts[1].Reason)
	}
	if !reflect.DeepEqual(out.Value.Suspects, EquivalenceClass(m, 3)) {
		t.Fatal("replay after injected faults lost the localization")
	}
}

func TestCampaignRejectsUnknownInjectionTier(t *testing.T) {
	m := buildMatrix(t, chip.IVD(), 0)
	p := &Planner{Matrix: m, Inject: []solve.Injection{{Tier: "diagnose-nope", Kind: solve.FaultPanic}}}
	if _, err := p.Campaign(context.Background(), 0); !errors.Is(err, solve.ErrUnknownInjectionTier) {
		t.Fatalf("err %v, want ErrUnknownInjectionTier", err)
	}
}

func TestCampaignCancelled(t *testing.T) {
	m := buildMatrix(t, chip.IVD(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Planner{Matrix: m}).Campaign(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// The candidate-update and split-scoring hot loops must not allocate:
// diagnosis inner loops run once per (step, vector) pair and would
// otherwise dominate campaign GC.
func TestHotLoopAllocs(t *testing.T) {
	m := buildMatrix(t, chip.RA30(), 0)
	s := NewSession(m, InjectedOracle(m, 1))
	if allocs := testing.AllocsPerRun(100, func() {
		s.BestSplit()
	}); allocs != 0 {
		t.Fatalf("BestSplit allocates %.1f per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.splitCount(0)
	}); allocs != 0 {
		t.Fatalf("splitCount allocates %.1f per run", allocs)
	}
}

// An oracle that contradicts every modeled fault must produce an empty,
// Consistent=false suspect set — never a panic. Adaptive selection stops
// as soon as no vector splits the candidates, so full inconsistency only
// surfaces when every vector is applied (the replay discipline); the
// session API supports exactly that.
func TestInconsistentOracle(t *testing.T) {
	// The series chain has full baseline coverage, so every modeled fault
	// is detected by some vector and a chip that never misbehaves on any
	// of them matches no candidate after all vectors are applied.
	m := buildMatrix(t, twoInSeries(t), 0)
	s := NewSession(m, func(int) bool { return false })
	for v := 0; v < m.NumVectors(); v++ {
		if m.Usable(v) {
			s.Apply(v)
		}
	}
	r := s.Result()
	if r.Consistent || len(r.Suspects) != 0 {
		t.Fatalf("expected inconsistent empty suspects, got %v (consistent=%v)", r.Suspects, r.Consistent)
	}
}

// TestAdaptiveVectorCountsSingleSource pins the adaptive engine's cost on
// the DFT flow's own test set: each bundled design augmented to one source
// and one meter, its test paths plus leak-preserving cuts applied to the
// augmented chip. Per design it pins the fault count, the exhaustive-replay
// cost (NumUsable vectors per fault), the adaptive total over all faults
// and the worst single fault, and checks that the adaptive suspect sets
// equal those of a campaign forced down to exhaustive replay.
func TestAdaptiveVectorCountsSingleSource(t *testing.T) {
	replayOnly, err := solve.ParseInjections(TierAdaptive + ":infeasible," + TierGreedy + ":infeasible")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		chip                        *chip.Chip
		faults, usable, total, most int
	}{
		{chip.IVD(), 28, 14, 154, 13},
		{chip.RA30(), 36, 18, 225, 17},
		{chip.MRNA(), 68, 33, 684, 31},
	} {
		aug, err := testgen.AugmentHeuristicCtx(ctx, tc.chip, testgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cuts, err := testgen.GenerateCuts(aug.Chip, aug.Source, aug.Meter)
		if err != nil {
			t.Fatal(err)
		}
		sim := fault.MustSimulator(aug.Chip, chip.IndependentControl(aug.Chip))
		m, err := fault.NewEngine(sim, 0).DetectionMatrix(ctx, append(aug.PathVectors(), cuts...), fault.AllFaults(aug.Chip))
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := (&Planner{Matrix: m}).Campaign(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := (&Planner{Matrix: m, Inject: replayOnly}).Campaign(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		total, most := 0, 0
		for i, d := range adaptive {
			n := d.Result.VectorsApplied()
			total += n
			most = max(most, n)
			if replay[i].Provenance.Name != TierReplay {
				t.Fatalf("%s %v: forced campaign ran tier %q, want %q", tc.chip.Name, d.Fault, replay[i].Provenance.Name, TierReplay)
			}
			if !reflect.DeepEqual(d.Result.Suspects, replay[i].Result.Suspects) {
				t.Errorf("%s %v: adaptive suspects %v, replay %v", tc.chip.Name, d.Fault, d.Result.Suspects, replay[i].Result.Suspects)
			}
		}
		if got := [4]int{len(adaptive), m.NumUsable(), total, most}; got != [4]int{tc.faults, tc.usable, tc.total, tc.most} {
			t.Errorf("%s: (faults, usable, total, max vectors) = %v, want %v",
				tc.chip.Name, got, [4]int{tc.faults, tc.usable, tc.total, tc.most})
		}
	}
}
