package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
)

// TestLivelockDetectedEarly drives a stuck-open ban set that wedges the IVD
// assay on an augmented IVD chip (the IVD/ban3 case of
// TestEngineMatchesBaselineDesigns), without and with the wash model. The
// engine must stop at the first repeated state, long before the horizon,
// with the progress count the baseline reaches at the horizon; a horizon
// below the detection time must still end the run first.
func TestLivelockDetectedEarly(t *testing.T) {
	aug := augmented(t, chip.IVD(), 4)
	ctrl, err := chip.SharedControl(aug, []int{-1, -1, -1, -1})
	if err != nil {
		t.Fatalf("SharedControl: %v", err)
	}
	g := assay.IVD()
	for _, wash := range []int{0, 3} {
		p := Params{BanOpen: []int{10, 7}, WashTimePerEdge: wash}
		eng, err := NewEngine(aug, g, p)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		m := NewMetrics()
		eng.SetMetrics(m)
		sch, done, err := eng.RunProgress(ctrl, p)
		var ll *LivelockError
		if !errors.Is(err, ErrLivelock) || !errors.As(err, &ll) {
			t.Fatalf("wash=%d: want a livelock, got %v", wash, err)
		}
		if sch != nil {
			t.Fatalf("wash=%d: livelocked run returned a schedule", wash)
		}
		if got := m.Snapshot().Livelocks; got != 1 {
			t.Fatalf("wash=%d: Livelocks = %d, want 1", wash, got)
		}
		_, baseDone, baseErr := RunProgressBaseline(aug, ctrl, g, p)
		if baseErr == nil || !strings.Contains(baseErr.Error(), "exceeded time horizon") {
			t.Fatalf("wash=%d: baseline error %v, want the horizon exit", wash, baseErr)
		}
		if done != baseDone || ll.Done != done || ll.Total != g.NumOps() {
			t.Fatalf("wash=%d: progress engine=%d (error %d/%d) baseline=%d", wash, done, ll.Done, ll.Total, baseDone)
		}
		maxTime := p.withDefaults().MaxTime
		if ll.At >= maxTime/100 || ll.Period <= 0 || ll.Period > ll.At {
			t.Fatalf("wash=%d: detected at t=%d with period %d, want t < %d", wash, ll.At, ll.Period, maxTime/100)
		}

		p.MaxTime = ll.At - 1
		_, hDone, hErr := eng.RunProgress(ctrl, p)
		if hErr == nil || errors.Is(hErr, ErrLivelock) || !strings.Contains(hErr.Error(), "exceeded time horizon") {
			t.Fatalf("wash=%d: MaxTime %d below detection: got %v, want the horizon exit", wash, p.MaxTime, hErr)
		}
		if hDone != done {
			t.Fatalf("wash=%d: horizon progress %d, want %d", wash, hDone, done)
		}
	}
}
