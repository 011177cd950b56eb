package testgen

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
)

// suiteChips returns the designs the suite property tests sweep: the three
// bundled chips plus generated FPVA grids.
func suiteChips(t *testing.T) []*chip.Chip {
	t.Helper()
	chips := append([]*chip.Chip(nil), chip.Benchmarks()...)
	chips = append(chips, chip.FPVA(6, 6))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 1}))
	chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: 12, H: 10, Seed: 5, Ports: 9}))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2; i++ {
		chips = append(chips, chip.Random(rng))
	}
	return chips
}

// canonical strips the non-invariant stats so suites can be compared
// bit-for-bit.
func canonical(s *Suite) *Suite {
	return &Suite{Paths: s.Paths, Cuts: s.Cuts, PathOf: s.PathOf, CutOf: s.CutOf, Uncovered: s.Uncovered}
}

// TestSuiteEnginesCoverageEqual: the template engine must reach coverage
// equal to GenerateBaseline on every design, including the larger seed-1
// FPVA grids of the template scaling curve.
func TestSuiteEnginesCoverageEqual(t *testing.T) {
	chips := suiteChips(t)
	for _, n := range []int{16, 32} {
		chips = append(chips, chip.MustGenerateFPVA(chip.FPVAParams{W: n, H: n, Seed: 1}))
	}
	for _, c := range chips {
		base, err := GenerateBaseline(c, SuiteOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.Name, err)
		}
		tmpl, err := GenerateTemplates(c, SuiteOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: template: %v", c.Name, err)
		}
		covB, covT := base.Coverage(4), tmpl.Coverage(4)
		if !reflect.DeepEqual(covB, covT) {
			t.Fatalf("%s: coverage differs: baseline %+v, template %+v", c.Name, covB, covT)
		}
		if !reflect.DeepEqual(base.Uncovered, tmpl.Uncovered) {
			t.Fatalf("%s: uncovered differs: %v vs %v", c.Name, base.Uncovered, tmpl.Uncovered)
		}
	}
}

// TestFPVASuiteFullCoverage: on dense FPVA grids every valve must get both
// vectors and the suite must detect every stuck-at fault.
func TestFPVASuiteFullCoverage(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 10, H: 10, Seed: 2})
	for _, gen := range []func() (*Suite, error){
		func() (*Suite, error) { return GenerateBaseline(c, SuiteOptions{Workers: 4}) },
		func() (*Suite, error) { return GenerateTemplates(c, SuiteOptions{Workers: 4}) },
	} {
		s, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Uncovered) != 0 {
			t.Fatalf("%s suite left valves uncovered: %v", s.Stats.Engine, s.Uncovered)
		}
		if cov := s.Coverage(4); !cov.Full() {
			t.Fatalf("%s suite coverage %v", s.Stats.Engine, cov)
		}
		for v := 0; v < c.NumValves(); v++ {
			if s.PathOf[v] < 0 || s.PathOf[v] >= len(s.Paths) || s.CutOf[v] < 0 || s.CutOf[v] >= len(s.Cuts) {
				t.Fatalf("%s: valve %d has bad vector indexes %d/%d", s.Stats.Engine, v, s.PathOf[v], s.CutOf[v])
			}
		}
	}
}

// TestSuiteWorkerCountInvariance: both engines must produce bit-identical
// suites for any worker count (fresh engine per run).
func TestSuiteWorkerCountInvariance(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 10, H: 8, Seed: 3})
	var wantB, wantT *Suite
	for _, workers := range []int{1, 2, 4, 8} {
		b, err := GenerateBaseline(c, SuiteOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s, err := GenerateTemplates(c, SuiteOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if wantB == nil {
			wantB, wantT = b, s
			continue
		}
		if !reflect.DeepEqual(canonical(b), canonical(wantB)) {
			t.Fatalf("baseline suite differs at %d workers", workers)
		}
		if !reflect.DeepEqual(canonical(s), canonical(wantT)) {
			t.Fatalf("template suite differs at %d workers", workers)
		}
	}
}

// TestTemplateMemoPurity: re-generating on the same engine must hit the
// cache for every class and return the same suite.
func TestTemplateMemoPurity(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 10, H: 10, Seed: 2})
	e := NewTemplateEngine()
	first, err := e.Generate(c, SuiteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.TemplateHits != 0 {
		t.Fatalf("fresh engine reported %d cache hits", first.Stats.TemplateHits)
	}
	second, err := e.Generate(c, SuiteOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.TemplateHits != int64(second.Stats.Classes) {
		t.Fatalf("rerun hit %d/%d classes", second.Stats.TemplateHits, second.Stats.Classes)
	}
	if !reflect.DeepEqual(canonical(first), canonical(second)) {
		t.Fatal("memoized rerun changed the suite")
	}
	if e.CachedTemplates() != first.Stats.Classes {
		t.Fatalf("cache holds %d templates for %d classes", e.CachedTemplates(), first.Stats.Classes)
	}
}

// TestTemplateClassCompression: the point of the engine. On seed-1 FPVA
// grids every valve falls into one of the same 10 line classes at any
// size, so the engine solves nothing and stamps every vector slot from a
// template. Those constant counts are what make it faster than
// GenerateBaseline, which solves one path and one cut per valve.
func TestTemplateClassCompression(t *testing.T) {
	for _, tc := range []struct {
		n            int
		fullCoverage bool
	}{
		{16, false},
		{32, false},
		{64, true},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.n, tc.n), func(t *testing.T) {
			if tc.n > 32 && testing.Short() {
				t.Skip("short mode")
			}
			c := chip.MustGenerateFPVA(chip.FPVAParams{W: tc.n, H: tc.n, Seed: 1})
			s, err := GenerateTemplates(c, SuiteOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			nv := c.NumValves()
			st := s.Stats
			if st.Classes != 10 || st.LineClasses != 10 {
				t.Errorf("%d classes (%d line), want 10 (10 line)", st.Classes, st.LineClasses)
			}
			if st.PathSolves != 0 || st.CutSolves != 0 || st.Fallbacks != 0 {
				t.Errorf("%d path solves, %d cut solves, %d fallbacks, want 0 each", st.PathSolves, st.CutSolves, st.Fallbacks)
			}
			if st.Instantiated != int64(2*nv) {
				t.Errorf("%d vector slots instantiated, want %d", st.Instantiated, 2*nv)
			}
			if len(s.Uncovered) != 0 {
				t.Errorf("%d valves uncovered", len(s.Uncovered))
			}
			if tc.fullCoverage {
				if cov := s.Coverage(4); !cov.Full() {
					t.Errorf("coverage %v, want full", cov)
				}
			}
		})
	}
}

// TestIrregularClassTotals pins the class counts of the port-relative
// (side+along) candidate-port encoding on elongated sparse-port FPVAs,
// the shapes where chip symmetry is broken and the encoding decides how
// far the valves collapse into classes. A change to the signature that
// splits or merges classes shows up here as an exact count change.
func TestIrregularClassTotals(t *testing.T) {
	for _, tc := range []struct {
		p    chip.FPVAParams
		want int
	}{
		{chip.FPVAParams{W: 64, H: 12, Ports: 5, Seed: 3}, 707},
		{chip.FPVAParams{W: 80, H: 14, Ports: 5, Seed: 3}, 958},
		{chip.FPVAParams{W: 96, H: 14, Ports: 7, Seed: 3}, 807},
	} {
		c, err := chip.GenerateFPVA(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		_, _, classes, _, _ := newSuitePre(c).classify()
		if len(classes) != tc.want {
			t.Errorf("%dx%d/%d ports: %d classes, want %d", tc.p.W, tc.p.H, tc.p.Ports, len(classes), tc.want)
		}
	}
}

// TestSuiteGenerationCancellation: a dead context aborts both engines.
func TestSuiteGenerationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := chip.FPVA(6, 6)
	if _, err := GenerateBaselineCtx(ctx, c, SuiteOptions{Workers: 1}); err == nil {
		t.Fatal("baseline ignored a cancelled context")
	}
	if _, err := NewTemplateEngine().GenerateCtx(ctx, c, SuiteOptions{Workers: 1}); err == nil {
		t.Fatal("template engine ignored a cancelled context")
	}
}

// TestSuiteVectorsCertified: every suite vector must be usable and detect
// the target fault of every valve mapped to it.
func TestSuiteVectorsCertified(t *testing.T) {
	c := chip.MustGenerateFPVA(chip.FPVAParams{W: 8, H: 8, Seed: 7})
	s, err := GenerateTemplates(c, SuiteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	for v := 0; v < c.NumValves(); v++ {
		pv, cv := s.Paths[s.PathOf[v]], s.Cuts[s.CutOf[v]]
		if !sim.FaultFreeOK(pv) || !sim.Detects(pv, fault.Fault{Kind: fault.StuckAt0, Valve: v}) {
			t.Fatalf("path vector of valve %d fails certification", v)
		}
		if !sim.FaultFreeOK(cv) || !sim.Detects(cv, fault.Fault{Kind: fault.StuckAt1, Valve: v}) {
			t.Fatalf("cut vector of valve %d fails certification", v)
		}
	}
}
