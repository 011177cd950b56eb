package testgen

import (
	"reflect"
	"testing"

	"repro/internal/chip"
)

// TestPathILPTrajectoryIVD pins the paper's path ILP on IVD_chip at one
// branch-and-bound worker: the node count, the lazy loop cuts and the
// returned configuration. A single worker makes the search a
// deterministic function of the LP relaxations, so any change to LP
// arithmetic or pivoting that alters even one relaxation's vertex shows
// up here as a different tree.
func TestPathILPTrajectoryIVD(t *testing.T) {
	if testing.Short() {
		t.Skip("full branch and bound on IVD_chip")
	}
	a, err := AugmentILP(chip.IVD(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.ILPNodes != 1990 || a.LazyCuts != 18 {
		t.Errorf("nodes=%d lazy cuts=%d, want 1990 and 18", a.ILPNodes, a.LazyCuts)
	}
	if want := []int{12, 23}; !reflect.DeepEqual(a.AddedEdges, want) {
		t.Errorf("added edges %v, want %v", a.AddedEdges, want)
	}
	want := [][]int{{33, 25, 14, 13, 15, 17, 19}, {23, 12, 11, 14, 25, 35, 37, 29, 18, 17, 19}}
	if !reflect.DeepEqual(a.Paths, want) {
		t.Errorf("paths %v, want %v", a.Paths, want)
	}
}

// BenchmarkPathILPIVD times the paper's path ILP on IVD_chip at one
// branch-and-bound worker, end to end through AugmentILP (model build,
// every LP relaxation, lazy cuts, decode), and reports the cost per
// branch-and-bound node.
func BenchmarkPathILPIVD(b *testing.B) {
	c := chip.IVD()
	nodes := 0
	for i := 0; i < b.N; i++ {
		a, err := AugmentILP(c, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		nodes += a.ILPNodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
