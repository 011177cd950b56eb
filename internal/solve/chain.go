package solve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/chip"
	"repro/internal/testgen"
)

// ChainConfig tunes AugmentChain.
type ChainConfig struct {
	// Exact enables the tier-0 exact ILP. When false the chain starts at
	// the heuristic tier (the PSO inner loop never pays for the ILP).
	Exact bool
	// ExactBudget, HeuristicBudget, RepairBudget cap each tier's
	// wall-clock time; 0 picks the defaults below.
	ExactBudget     time.Duration
	HeuristicBudget time.Duration
	RepairBudget    time.Duration
	// Options is forwarded to every testgen engine. Options.Workers sizes
	// the branch-and-bound worker pool of the exact tier's ILP solves
	// (0 = all CPU cores).
	Options testgen.Options
	// Inject lists deterministic faults for the chain's Runner.
	Inject []Injection
	// OnAttempt is forwarded to the Runner's per-tier attempt hook.
	OnAttempt func(Attempt)

	// exact replaces the exact tier's engine (testgen.AugmentILPCtx when
	// nil), so tests can hand it a known configuration.
	exact func(ctx context.Context, c *chip.Chip, opts testgen.Options) (*testgen.Augmentation, error)
}

// errExactNotCuttable marks an exact-tier configuration that admits no
// complete leak-preserving stuck-at-1 cut cover. The tier fails with it,
// so the chain falls through to the heuristic.
var errExactNotCuttable = errors.New("solve: exact configuration has no complete stuck-at-1 cut cover")

// cuttable accepts an augmentation only if testgen.GenerateCutsCtx covers
// every valve of it with a leak-preserving cut. The exact ILP optimizes
// the paths alone, and a configuration it returns can lack such a cut
// cover; the flow cannot test that configuration, so the tier must not
// return it.
func cuttable(ctx context.Context, aug *testgen.Augmentation) error {
	if _, err := testgen.GenerateCutsCtx(ctx, aug.Chip, aug.Source, aug.Meter); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return fmt.Errorf("solve: cut check of the exact configuration: %w", ctxErr)
		}
		return fmt.Errorf("%w: %v", errExactNotCuttable, err)
	}
	return nil
}

// Default per-tier budgets for AugmentChain.
const (
	DefaultExactBudget     = 30 * time.Second
	DefaultHeuristicBudget = 10 * time.Second
	DefaultRepairBudget    = 5 * time.Second
)

func pick(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// AugmentChain builds the DFT-augmentation degradation chain for a chip:
// exact ILP (optional) → greedy heuristic → best-effort repair. The exact
// tier only returns configurations that GenerateCuts can cover; any other
// fails the tier with errExactNotCuttable. The repair tier records any
// original edges it could not cover in Augmentation.Uncovered rather than
// failing, so the chain only exhausts when even a partial configuration
// is impossible.
func AugmentChain(c *chip.Chip, cfg ChainConfig) *Runner[*testgen.Augmentation] {
	r := &Runner[*testgen.Augmentation]{
		Inject:        cfg.Inject,
		InfeasibleErr: testgen.ErrInfeasible,
		OnAttempt:     cfg.OnAttempt,
	}
	tier := 0
	if cfg.Exact {
		exact := cfg.exact
		if exact == nil {
			exact = testgen.AugmentILPCtx
		}
		r.Tiers = append(r.Tiers, TierSpec[*testgen.Augmentation]{
			Tier: tier, Name: "exact", Budget: pick(cfg.ExactBudget, DefaultExactBudget),
			Run: func(ctx context.Context) (*testgen.Augmentation, error) {
				aug, err := exact(ctx, c, cfg.Options)
				if err != nil {
					return nil, err
				}
				if err := cuttable(ctx, aug); err != nil {
					return nil, err
				}
				return aug, nil
			},
		})
		tier++
	}
	r.Tiers = append(r.Tiers, TierSpec[*testgen.Augmentation]{
		Tier: tier, Name: "heuristic", Budget: pick(cfg.HeuristicBudget, DefaultHeuristicBudget),
		Run: func(ctx context.Context) (*testgen.Augmentation, error) {
			return testgen.AugmentHeuristicCtx(ctx, c, cfg.Options)
		},
	})
	tier++
	r.Tiers = append(r.Tiers, TierSpec[*testgen.Augmentation]{
		Tier: tier, Name: "repair", Budget: pick(cfg.RepairBudget, DefaultRepairBudget),
		Run: func(ctx context.Context) (*testgen.Augmentation, error) {
			return testgen.AugmentRepair(ctx, c, cfg.Options)
		},
	})
	return r
}
