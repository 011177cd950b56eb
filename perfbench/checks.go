package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
)

// flowResultErr rejects a flow result the paper would not accept: an
// interrupted search or a test set without full coverage.
func flowResultErr(res *core.Result) error {
	switch {
	case res == nil:
		return errors.New("no result")
	case res.Interrupted:
		return errors.New("flow interrupted")
	case !res.CoverageFull:
		return errors.New("test set lacks full coverage")
	}
	return nil
}

// checkFlow verifies a flow result independently of the flow: the paper's
// invariants (no new control lines, ExecPSO <= ExecNoPSO, counts that
// match the architecture), full coverage re-simulated by a fresh fault
// simulator under the reported control, and a re-schedule of the augmented
// chip under that control through the public scheduler that must pass
// sched.ValidateSchedule and reproduce ExecPSO.
func checkFlow(ctx context.Context, orig *chip.Chip, g *assay.Graph, opts core.Options, res *core.Result, tr *tracer) error {
	if err := flowResultErr(res); err != nil {
		return err
	}
	aug, ctrl := res.Aug.Chip, res.Control
	if n := ctrl.NumLines(); n != orig.NumValves() {
		return fmt.Errorf("control uses %d lines, original chip has %d valves", n, orig.NumValves())
	}
	if res.ExecPSO > res.ExecNoPSO {
		return fmt.Errorf("ExecPSO %d > ExecNoPSO %d", res.ExecPSO, res.ExecNoPSO)
	}
	if res.NumDFTValves != aug.NumDFTValves() {
		return fmt.Errorf("NumDFTValves %d, augmented chip has %d", res.NumDFTValves, aug.NumDFTValves())
	}
	vectors := append(append([]fault.Vector{}, res.PathVectors...), res.CutVectors...)
	if res.NumTestVectors != len(vectors) {
		return fmt.Errorf("NumTestVectors %d, result has %d vectors", res.NumTestVectors, len(vectors))
	}
	var cov fault.Coverage
	var err error
	tr.timeCall("fault.verify", func() {
		var sim *fault.Simulator
		if sim, err = fault.NewSimulator(aug, ctrl); err == nil {
			cov, err = fault.NewEngine(sim, opts.Workers).EvaluateCoverageCtx(ctx, vectors, fault.AllFaults(aug))
		}
	})
	if err != nil {
		return fmt.Errorf("coverage re-check: %w", err)
	}
	if !cov.Full() {
		return fmt.Errorf("coverage re-check: %v", cov)
	}
	var sch *sched.Schedule
	tr.timeCall("sched.validate", func() {
		if sch, err = sched.RunCtx(ctx, aug, ctrl, g, opts.Sched); err == nil {
			err = sched.ValidateSchedule(aug, g, sch)
		}
	})
	if err != nil {
		return fmt.Errorf("re-schedule under the reported control: %w", err)
	}
	if sch.ExecutionTime != res.ExecPSO {
		return fmt.Errorf("re-scheduled execution time %d, flow reported ExecPSO %d", sch.ExecutionTime, res.ExecPSO)
	}
	return nil
}

// checkSuite verifies a suite run: full stuck-at coverage and a non-empty
// vector set.
func checkSuite(res *core.SuiteRunResult) error {
	if res == nil || res.Suite == nil {
		return errors.New("no suite")
	}
	if !res.Coverage.Full() {
		return fmt.Errorf("suite coverage %v", res.Coverage)
	}
	if len(res.Suite.Paths)+len(res.Suite.Cuts) == 0 {
		return errors.New("suite has no vectors")
	}
	return nil
}

// sameBytes reports a mismatch between a served result's canonical
// encoding and the one its set-up solve produced.
func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: canonical encoding differs from the set-up solve (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}
