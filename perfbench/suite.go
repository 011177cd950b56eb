package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
)

// suiteGrid is one generated FPVA of the fpva-suite workload.
type suiteGrid struct {
	w, h, ports int
}

func (g suiteGrid) name() string { return fmt.Sprintf("fpva-%dx%d", g.w, g.h) }

// params returns the generator parameters; the benchmark seed places the
// devices, which leaves the lattice, and so the suite's work, unchanged.
func (g suiteGrid) params(seed int64) chip.FPVAParams {
	return chip.FPVAParams{W: g.w, H: g.h, Ports: g.ports, Seed: seed}
}

// suiteGrids are three square grids and an elongated grid with few ports,
// where port-relative classes matter (0 ports = the generator's default).
var suiteGrids = []suiteGrid{{32, 32, 0}, {48, 48, 0}, {64, 64, 0}, {96, 16, 6}}

// suiteWorkload runs RunSuite with the template engine on generated FPVA
// grids, one after another, with a fresh template engine per run.
type suiteWorkload struct {
	seed    int64
	workers int

	rng   *rand.Rand
	chips []*chip.Chip
}

func (w *suiteWorkload) setup(ctx context.Context) error {
	w.rng = rand.New(rand.NewSource(w.seed))
	w.chips = w.chips[:0]
	for _, g := range suiteGrids {
		c, err := chip.GenerateFPVA(g.params(w.seed))
		if err != nil {
			return fmt.Errorf("%s: %w", g.name(), err)
		}
		w.chips = append(w.chips, c)
	}
	// One untimed suite on a small grid pays the process's lazy set-up
	// (heap growth, pools, first-touch page faults) before timing.
	c, err := chip.GenerateFPVA(chip.FPVAParams{W: 24, H: 24, Seed: w.seed})
	if err != nil {
		return err
	}
	res, err := core.RunSuiteCtx(ctx, c, core.SuiteRunOptions{Workers: w.workers})
	if err != nil {
		return fmt.Errorf("warm-up suite: %w", err)
	}
	return checkSuite(res)
}

func (w *suiteWorkload) pass(ctx context.Context, tr *tracer) []opRecord {
	var recs []opRecord
	for _, i := range w.rng.Perm(len(w.chips)) {
		c := w.chips[i]
		obs := tr.observer()
		t0 := time.Now()
		res, err := core.RunSuiteCtx(ctx, c, core.SuiteRunOptions{Workers: w.workers, Observer: asObserver(obs)})
		rec := opRecord{name: suiteGrids[i].name(), latency: time.Since(t0)}
		if err != nil {
			rec.err = fmt.Errorf("%s: %w", rec.name, err)
			recs = append(recs, rec)
			continue
		}
		tr.addOp(rec.name, obs, res.Stats)
		rec.vectors = len(res.Suite.Paths) + len(res.Suite.Cuts)
		rec.check = func(*tracer) error {
			if err := checkSuite(res); err != nil {
				return fmt.Errorf("%s: %w", rec.name, err)
			}
			return nil
		}
		recs = append(recs, rec)
	}
	return recs
}

func (w *suiteWorkload) close() error { return nil }
