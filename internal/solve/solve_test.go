package solve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/testgen"
)

func ok(v int) TierSpec[int] {
	return TierSpec[int]{Tier: 0, Name: "exact", Run: func(ctx context.Context) (int, error) { return v, nil }}
}

func named(name string, tier int, run func(ctx context.Context) (int, error)) TierSpec[int] {
	return TierSpec[int]{Tier: tier, Name: name, Run: run}
}

func TestRunnerFirstTierSucceeds(t *testing.T) {
	r := &Runner[int]{Tiers: []TierSpec[int]{ok(42)}}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 42 || out.Degraded || out.Name != "exact" || out.Tier != 0 {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
	if len(out.Attempts) != 1 || out.Attempts[0].Reason != ReasonOK {
		t.Fatalf("bad attempts: %+v", out.Attempts)
	}
}

func TestRunnerFallsBackOnError(t *testing.T) {
	boom := errors.New("boom")
	r := &Runner[int]{Tiers: []TierSpec[int]{
		named("exact", 0, func(ctx context.Context) (int, error) { return 0, boom }),
		named("heuristic", 1, func(ctx context.Context) (int, error) { return 7, nil }),
	}}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 7 || !out.Degraded || out.Name != "heuristic" || out.Tier != 1 {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
	if len(out.Attempts) != 2 || out.Attempts[0].Reason != ReasonError {
		t.Fatalf("bad attempts: %+v", out.Attempts)
	}
}

func TestRunnerInjectedTimeoutUsesRealCancellationPath(t *testing.T) {
	sawExpired := false
	r := &Runner[int]{
		Inject: []Injection{{Tier: "exact", Kind: FaultTimeout}},
		Tiers: []TierSpec[int]{
			named("exact", 0, func(ctx context.Context) (int, error) {
				// The tier must see an already-expired deadline.
				if err := ctx.Err(); err != nil {
					sawExpired = true
					return 0, fmt.Errorf("solver stopped: %w", err)
				}
				return 1, nil
			}),
			named("heuristic", 1, func(ctx context.Context) (int, error) { return 2, nil }),
		},
	}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sawExpired {
		t.Fatal("injected timeout did not expire the tier's context")
	}
	if out.Value != 2 || !out.Degraded {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
	a := out.Attempts[0]
	if a.Reason != ReasonTimeout || a.Injected != FaultTimeout {
		t.Fatalf("bad attempt: %+v", a)
	}
}

func TestRunnerInjectedPanicIsRecovered(t *testing.T) {
	r := &Runner[int]{
		Inject: []Injection{{Tier: "exact", Kind: FaultPanic}},
		Tiers: []TierSpec[int]{
			named("exact", 0, func(ctx context.Context) (int, error) { return 1, nil }),
			named("heuristic", 1, func(ctx context.Context) (int, error) { return 2, nil }),
		},
	}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 2 || !out.Degraded {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
	a := out.Attempts[0]
	if a.Reason != ReasonPanic {
		t.Fatalf("bad reason: %+v", a)
	}
	var pe *PanicError
	if !errors.As(a.Err, &pe) || pe.Tier != "exact" || len(pe.Stack) == 0 {
		t.Fatalf("bad panic error: %+v", a.Err)
	}
}

func TestRunnerRealPanicIsRecovered(t *testing.T) {
	r := &Runner[int]{Tiers: []TierSpec[int]{
		named("exact", 0, func(ctx context.Context) (int, error) { panic("kaboom") }),
		named("heuristic", 1, func(ctx context.Context) (int, error) { return 2, nil }),
	}}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 2 || out.Attempts[0].Reason != ReasonPanic {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
}

func TestRunnerInjectedInfeasible(t *testing.T) {
	sentinel := errors.New("domain infeasible")
	ran := false
	r := &Runner[int]{
		InfeasibleErr: sentinel,
		Inject:        []Injection{{Tier: "exact", Kind: FaultInfeasible}},
		Tiers: []TierSpec[int]{
			named("exact", 0, func(ctx context.Context) (int, error) { ran = true; return 1, nil }),
			named("heuristic", 1, func(ctx context.Context) (int, error) { return 2, nil }),
		},
	}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("FaultInfeasible must not run the tier")
	}
	a := out.Attempts[0]
	if a.Reason != ReasonInfeasible || !errors.Is(a.Err, sentinel) {
		t.Fatalf("bad attempt: %v %v", a.Reason, a.Err)
	}
}

func TestRunnerAllTiersFail(t *testing.T) {
	boom := errors.New("boom")
	r := &Runner[int]{Tiers: []TierSpec[int]{
		named("exact", 0, func(ctx context.Context) (int, error) { return 0, boom }),
		named("heuristic", 1, func(ctx context.Context) (int, error) { panic("dead") }),
	}}
	out, err := r.Run(context.Background())
	var ex *ExhaustedError
	if !errors.As(err, &ex) || len(ex.Attempts) != 2 {
		t.Fatalf("want ExhaustedError with 2 attempts, got %v", err)
	}
	if out.Reason != ReasonPanic || !out.Degraded {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
}

func TestRunnerCallerCancellationStopsChain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	r := &Runner[int]{Tiers: []TierSpec[int]{
		named("exact", 0, func(ctx context.Context) (int, error) { ran++; return 1, nil }),
		named("heuristic", 1, func(ctx context.Context) (int, error) { ran++; return 2, nil }),
	}}
	_, err := r.Run(ctx)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want ExhaustedError, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("no tier should run under a dead context, ran=%d", ran)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error chain should expose context.Canceled: %v", err)
	}
	if len(ex.Attempts) != 1 || ex.Attempts[0].Reason != ReasonCancelled {
		t.Fatalf("bad attempts: %+v", ex.Attempts)
	}
}

func TestRunnerMidChainCancellationSkipsCheaperTiers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	r := &Runner[int]{Tiers: []TierSpec[int]{
		named("exact", 0, func(ctx context.Context) (int, error) {
			cancel() // the user hits Ctrl-C while tier 0 runs
			return 0, fmt.Errorf("stopped: %w", ctx.Err())
		}),
		named("heuristic", 1, func(ctx context.Context) (int, error) { ran++; return 2, nil }),
	}}
	_, err := r.Run(ctx)
	if err == nil {
		t.Fatal("want error")
	}
	if ran != 0 {
		t.Fatal("cheaper tier must not run after caller cancellation")
	}
}

func TestRunnerBudgetExpires(t *testing.T) {
	r := &Runner[int]{Tiers: []TierSpec[int]{
		{Tier: 0, Name: "slow", Budget: 5 * time.Millisecond,
			Run: func(ctx context.Context) (int, error) {
				<-ctx.Done()
				return 0, ctx.Err()
			}},
		named("fast", 1, func(ctx context.Context) (int, error) { return 9, nil }),
	}}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Value != 9 || out.Attempts[0].Reason != ReasonTimeout {
		t.Fatalf("bad outcome: %+v", out.Provenance)
	}
}

func TestParseInjections(t *testing.T) {
	inj, err := ParseInjections(" exact:timeout, heuristic:panic ,repair:infeasible")
	if err != nil {
		t.Fatal(err)
	}
	want := []Injection{
		{Tier: "exact", Kind: FaultTimeout},
		{Tier: "heuristic", Kind: FaultPanic},
		{Tier: "repair", Kind: FaultInfeasible},
	}
	if len(inj) != len(want) {
		t.Fatalf("got %+v", inj)
	}
	for i := range want {
		if inj[i] != want[i] {
			t.Fatalf("got %+v want %+v", inj[i], want[i])
		}
	}
	if _, err := ParseInjections("exact"); err == nil {
		t.Fatal("want error for missing kind")
	}
	if _, err := ParseInjections("exact:fire"); err == nil {
		t.Fatal("want error for bad kind")
	}
	if inj, err := ParseInjections("  "); err != nil || inj != nil {
		t.Fatalf("blank spec should be empty, got %v %v", inj, err)
	}
}

// TestAugmentChainDegradation walks the real chain on a benchmark chip
// through every tier.
func TestAugmentChainDegradation(t *testing.T) {
	c := chip.IVD()

	t.Run("exact-succeeds", func(t *testing.T) {
		out, err := AugmentChain(c, ChainConfig{Exact: true}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if out.Degraded || out.Name != "exact" || out.Value.Method != "ilp" {
			t.Fatalf("bad outcome: %+v method=%q", out.Provenance, out.Value.Method)
		}
	})

	t.Run("timeout-to-heuristic", func(t *testing.T) {
		out, err := AugmentChain(c, ChainConfig{
			Exact:  true,
			Inject: []Injection{{Tier: "exact", Kind: FaultTimeout}},
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !out.Degraded || out.Name != "heuristic" || out.Value.Method != "heuristic" {
			t.Fatalf("bad outcome: %+v method=%q", out.Provenance, out.Value.Method)
		}
		if out.Attempts[0].Reason != ReasonTimeout {
			t.Fatalf("tier 0 should have timed out: %+v", out.Attempts[0])
		}
	})

	t.Run("panic-to-repair", func(t *testing.T) {
		out, err := AugmentChain(c, ChainConfig{
			Exact: true,
			Inject: []Injection{
				{Tier: "exact", Kind: FaultTimeout},
				{Tier: "heuristic", Kind: FaultPanic},
			},
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !out.Degraded || out.Name != "repair" || out.Value.Method != "repair" {
			t.Fatalf("bad outcome: %+v method=%q", out.Provenance, out.Value.Method)
		}
		if out.Attempts[1].Reason != ReasonPanic {
			t.Fatalf("tier 1 should have panicked: %+v", out.Attempts[1])
		}
		// IVD is fully routable: even the repair tier covers everything.
		if len(out.Value.Uncovered) != 0 {
			t.Fatalf("repair left %d edges uncovered on IVD", len(out.Value.Uncovered))
		}
	})

	t.Run("repair-partial-under-timeout", func(t *testing.T) {
		out, err := AugmentChain(c, ChainConfig{
			Exact: true,
			Inject: []Injection{
				{Tier: "exact", Kind: FaultInfeasible},
				{Tier: "heuristic", Kind: FaultPanic},
				{Tier: "repair", Kind: FaultTimeout},
			},
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// The repair tier never fails on timeout: it returns a partial
		// configuration with the remaining targets recorded.
		if out.Name != "repair" || len(out.Value.Uncovered) == 0 {
			t.Fatalf("want partial repair result, got %+v uncovered=%d", out.Provenance, len(out.Value.Uncovered))
		}
		if out.Attempts[0].Reason != ReasonInfeasible {
			t.Fatalf("tier 0 should be infeasible: %+v", out.Attempts[0])
		}
	})
}

func TestRunRejectsUnknownInjectionTier(t *testing.T) {
	r := &Runner[int]{
		Tiers: []TierSpec[int]{
			{Tier: 0, Name: "heuristic", Run: func(ctx context.Context) (int, error) { return 1, nil }},
		},
		Inject: []Injection{{Tier: "exact", Kind: FaultTimeout}},
	}
	_, err := r.Run(context.Background())
	if !errors.Is(err, ErrUnknownInjectionTier) {
		t.Fatalf("err = %v, want ErrUnknownInjectionTier", err)
	}
}

// An exact-tier configuration that GenerateCuts cannot cover must not be
// returned: the tier fails with errExactNotCuttable, the attempt is
// recorded, and the chain falls through to the heuristic. The bare
// IVD_chip with its test ports (no DFT channels) is such a configuration.
func TestAugmentChainRejectsUncuttableExact(t *testing.T) {
	c := chip.IVD()
	src, dst := c.MaxDistantPortPair()
	bare := &testgen.Augmentation{Chip: c, Source: src, Meter: dst, Method: "ilp"}
	if _, err := testgen.GenerateCuts(bare.Chip, bare.Source, bare.Meter); err == nil {
		t.Fatal("fixture: GenerateCuts covers the bare chip; pick another configuration")
	}
	out, err := AugmentChain(c, ChainConfig{
		Exact: true,
		exact: func(context.Context, *chip.Chip, testgen.Options) (*testgen.Augmentation, error) {
			return bare, nil
		},
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Name != "heuristic" || out.Value.Method != "heuristic" {
		t.Fatalf("bad outcome: %+v method=%q", out.Provenance, out.Value.Method)
	}
	a := out.Attempts[0]
	if a.Name != "exact" || a.Reason != ReasonError || !errors.Is(a.Err, errExactNotCuttable) {
		t.Fatalf("exact attempt = %+v, want a recorded errExactNotCuttable failure", a)
	}
	if _, err := testgen.GenerateCuts(out.Value.Chip, out.Value.Source, out.Value.Meter); err != nil {
		t.Fatalf("heuristic configuration not cuttable: %v", err)
	}
}
