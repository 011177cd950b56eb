package core

import (
	"fmt"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/pso"
)

// TestPaperCPALivelockCounts pins the Table 1 CPA rows under the paper
// configuration (5x5 particles, 100 outer and 8 inner iterations, seed
// 2018) at one and two workers: the sharing schemes the swarm explores
// wedge the schedule a fixed number of times, each caught by the
// scheduler's cycle detection (sched_livelocks) instead of a run to the
// horizon, and the flow outputs are those the horizon runs produced.
func TestPaperCPALivelockCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("three paper-configuration flows per worker count")
	}
	rows := []struct {
		name                       string
		chip                       *chip.Chip
		livelocks                  int64
		execPSO, execNoPSO, vector int
	}{
		{"IVD", chip.IVD(), 3, 1423, 1429, 14},
		{"RA30", chip.RA30(), 6, 2188, 2188, 24},
		{"mRNA", chip.MRNA(), 2, 1589, 1589, 34},
	}
	for _, workers := range []int{1, 2} {
		for _, r := range rows {
			t.Run(fmt.Sprintf("%s/CPA/w%d", r.name, workers), func(t *testing.T) {
				res, err := RunDFTFlow(r.chip, assay.CPA(), Options{
					Outer:   pso.Config{Particles: 5, Iterations: 100},
					Inner:   pso.Config{Particles: 5, Iterations: 8},
					Seed:    2018,
					Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				var livelocks int64
				for _, st := range res.Stats.Stages {
					livelocks += st.Counter("sched_livelocks")
				}
				if livelocks != r.livelocks || res.ExecPSO != r.execPSO || res.ExecNoPSO != r.execNoPSO || res.NumTestVectors != r.vector {
					t.Fatalf("livelocks=%d ExecPSO/ExecNoPSO=%d/%d vectors=%d, want %d %d/%d %d",
						livelocks, res.ExecPSO, res.ExecNoPSO, res.NumTestVectors,
						r.livelocks, r.execPSO, r.execNoPSO, r.vector)
				}
			})
		}
	}
}
