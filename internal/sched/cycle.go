package sched

import (
	"errors"
	"fmt"
	"slices"
)

// Exact livelock detection. The event loop is deterministic: everything a
// later step reads is the run state below, and every time it reads is
// relative to now. So once the state at a loop top repeats, shifted in
// time, the run cycles forever and never completes another op; simulating
// on to MaxTime would only reach the horizon exit with the same doneOps.
// Brent's algorithm finds the repeat with one saved snapshot, and the
// snapshots are compared element by element — no hashing, so a reported
// livelock is never a false positive.

// ErrLivelock matches (errors.Is) the error of a run whose simulation state
// repeated: the schedule is wedged in a cycle that would run to MaxTime.
var ErrLivelock = errors.New("sched: livelock")

// LivelockError is the error a livelocked run returns.
type LivelockError struct {
	// At is the simulated time the repeated state was seen again; Period
	// the simulated seconds between the two visits.
	At, Period int
	// Done of Total ops had completed — the count a run to the horizon
	// would report, since no op completes inside the cycle.
	Done, Total int
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("sched: livelock at t=%d: state of t=%d repeats (%d/%d ops done)", e.At, e.At-e.Period, e.Done, e.Total)
}

// Is makes a LivelockError match ErrLivelock.
func (e *LivelockError) Is(target error) bool { return target == ErrLivelock }

// livelockGrace is the number of loop tops after an op completion that
// go unchecked. The finishing runs of the nine Table 1 flows see at most
// 17 in a row, so they never pay for an encoding, while a livelock is
// caught a few dozen events later than it could be.
const livelockGrace = 32

// cycleDetector is Brent's cycle detection over the loop-top states of
// one run. saved is the checkpoint state (empty before the first), taken
// power states after the previous one; lam counts the states since it.
// doneOps is part of the state, so no cycle spans an op completion: done
// is the progress level the search runs at and idle the loop tops seen
// at it.
type cycleDetector struct {
	cur, saved []int
	savedAt    int
	power, lam int
	done, idle int
}

// reset restarts the search at progress level done.
func (cd *cycleDetector) reset(done int) {
	cd.done, cd.idle = done, 0
	cd.saved = cd.saved[:0]
	cd.power, cd.lam = 1, 0
}

// livelock returns a LivelockError when the current state repeats the
// checkpoint, and nil otherwise.
func (rs *runState) livelock() error {
	cd := &rs.cycle
	if rs.doneOps != cd.done {
		cd.reset(rs.doneOps)
	}
	cd.idle++
	if cd.idle <= livelockGrace {
		return nil
	}
	cd.cur = rs.encodeState(cd.cur[:0])
	if len(cd.saved) > 0 && slices.Equal(cd.cur, cd.saved) {
		return &LivelockError{At: rs.now, Period: rs.now - cd.savedAt, Done: rs.doneOps, Total: rs.eng.numOps}
	}
	cd.lam++
	if len(cd.saved) == 0 || cd.lam == cd.power {
		cd.saved = append(cd.saved[:0], cd.cur...)
		cd.savedAt = rs.now
		cd.power *= 2
		cd.lam = 0
	}
	return nil
}

// encodeState appends the complete decision state of the run to buf, with
// every time made relative to now. Variable-length sections carry their
// length, so two distinct states never encode alike.
func (rs *runState) encodeState(buf []int) []int {
	buf = append(buf, rs.doneOps)
	for i := range rs.ops {
		oc := &rs.ops[i]
		rel := 0
		if oc.phase == phaseRunning {
			rel = oc.finish - rs.now
		}
		buf = append(buf, int(oc.phase), oc.device, b2i(oc.isPort), rel, oc.pending)
	}
	for i := range rs.products {
		pr := &rs.products[i]
		buf = append(buf, b2i(pr.exists), int(pr.loc.kind), pr.loc.id, pr.totalConsumers,
			pr.started, pr.arrived, pr.holdsDevice, pr.holdsPort, b2i(pr.moving))
	}
	// Pending tasks in slice order (step tries them in that order); done
	// and started ones are history or covered by the active transports.
	n := len(buf)
	buf = append(buf, 0)
	for i := range rs.tasks {
		if t := &rs.tasks[i]; !t.started && !t.done {
			buf = append(buf, t.producer, t.consumer)
			buf[n]++
		}
	}
	buf = append(buf, len(rs.active))
	for i := range rs.active {
		at := &rs.active[i]
		t := &rs.tasks[at.taskIdx]
		buf = append(buf, t.producer, t.consumer, at.finish-rs.now, int(at.to.kind), at.to.id, len(at.edges))
		buf = append(buf, at.edges...)
	}
	for _, b := range rs.deviceBusy {
		buf = append(buf, b2i(b))
	}
	for _, b := range rs.portBusy {
		buf = append(buf, b2i(b))
	}
	for ed, b := range rs.edgeBusy {
		buf = append(buf, b2i(b), rs.holderOf[ed])
	}
	if rs.params.WashTimePerEdge > 0 {
		buf = append(buf, rs.lastFluid...)
	}
	return buf
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
