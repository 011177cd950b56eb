package lp

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the SolveTab bit-identity fixture")

const goldenPath = "testdata/solvetab_golden.txt"

// goldenCase is one SolveTab call: a problem and the bound overrides it is
// solved under (nil for the problem's own bounds).
type goldenCase struct {
	name string
	p    *Problem
	ov   [][2]float64
}

// goldenLine renders a solve result bit-exactly: status, the IEEE bits of
// Obj and of every X entry.
func goldenLine(name string, sol Solution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %016x", name, sol.Status, math.Float64bits(sol.Obj))
	if len(sol.X) == 0 {
		b.WriteString(" -")
	}
	for i, x := range sol.X {
		if i == 0 {
			b.WriteByte(' ')
		} else {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%016x", math.Float64bits(x))
	}
	return b.String()
}

// fixRandomVars returns overrides fixing a random third of the variables
// to a value inside their bounds (0 or 1 clipped into the box).
func fixRandomVars(rng *rand.Rand, p *Problem) [][2]float64 {
	ov := p.DefaultOverrides()
	for i := range ov {
		if rng.Intn(3) != 0 {
			continue
		}
		v := math.Min(math.Max(float64(rng.Intn(2)), ov[i][0]), ov[i][1])
		ov[i] = [2]float64{v, v}
	}
	return ov
}

// sparseMixedLP is a larger random LP (tens of rows and columns, ~15%
// density) mixing relations and bound styles, so eliminations create
// fill-in. Every row holds at a random point x0 of the box (equalities
// exactly, inequalities with slack), so the LP is feasible.
func sparseMixedLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem(Minimize)
	x0 := make([]float64, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			p.AddBinaryVar(rng.Float64()*4-2, "b")
			x0[i] = float64(rng.Intn(2))
		case 1:
			ub := 1 + rng.Float64()*3
			p.AddVar(rng.Float64()*4-2, 0, ub, "w")
			x0[i] = ub * rng.Float64()
		default:
			p.AddVar(0.1+rng.Float64()*3, 0, math.Inf(1), "inf")
			x0[i] = 2 * rng.Float64()
		}
	}
	for k := 0; k < m; k++ {
		var terms []Term
		lhs := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(7) == 0 {
				c := float64(rng.Intn(5)-2) + rng.Float64()*0.5
				terms = append(terms, T(i, c))
				lhs += c * x0[i]
			}
		}
		if len(terms) == 0 {
			i := rng.Intn(n)
			terms = append(terms, T(i, 1))
			lhs = x0[i]
		}
		rel := Rel(rng.Intn(3))
		switch rel {
		case LE:
			lhs += rng.Float64()
		case GE:
			lhs -= rng.Float64()
		}
		p.AddConstraint(Constraint{Terms: terms, Rel: rel, RHS: lhs})
	}
	return p
}

// gridPathLP is the shape of the paper's path ILP (eqs. (1)-(3)) on a w×h
// grid: nPaths source-to-sink paths with equality degree rows, node
// variables with coefficient -2, and >= cover rows on a subset of edges.
// Its relaxations are full of exact 0.5 ties.
func gridPathLP(w, h, nPaths int, rng *rand.Rand) *Problem {
	type edge struct{ a, b int }
	var edges []edge
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x+1 < w {
				edges = append(edges, edge{v, v + 1})
			}
			if y+1 < h {
				edges = append(edges, edge{v, v + w})
			}
		}
	}
	nNodes := w * h
	src, dst := 0, nNodes-1
	p := NewProblem(Minimize)
	eVar := make([][]int, nPaths)
	nVar := make([][]int, nPaths)
	for r := 0; r < nPaths; r++ {
		for range edges {
			eVar[r] = append(eVar[r], p.AddBinaryVar(1e-3, "e"))
		}
		for i := 0; i < nNodes; i++ {
			nVar[r] = append(nVar[r], p.AddBinaryVar(0, "n"))
		}
	}
	for r := 0; r < nPaths; r++ {
		for i := 0; i < nNodes; i++ {
			var terms []Term
			for j, e := range edges {
				if e.a == i || e.b == i {
					terms = append(terms, T(eVar[r][j], 1))
				}
			}
			if i == src || i == dst {
				p.AddConstraint(Constraint{Terms: terms, Rel: EQ, RHS: 1})
				continue
			}
			terms = append(terms, T(nVar[r][i], -2))
			p.AddConstraint(Constraint{Terms: terms, Rel: EQ, RHS: 0})
		}
	}
	for j := range edges {
		if rng.Intn(2) != 0 {
			continue
		}
		var terms []Term
		for r := 0; r < nPaths; r++ {
			terms = append(terms, T(eVar[r][j], 1))
		}
		p.AddConstraint(Constraint{Terms: terms, Rel: GE, RHS: 1})
	}
	return p
}

// redundantEqLP has linearly dependent equality rows (duplicates and
// sums), so phase 1 ends with artificials basic at zero and
// driveOutArtificials must exchange or keep them.
func redundantEqLP(rng *rand.Rand) *Problem {
	p := NewProblem(Minimize)
	n := 4 + rng.Intn(5)
	x0 := make([]float64, n)
	for i := 0; i < n; i++ {
		p.AddVar(rng.Float64()*4-1, 0, 2+rng.Float64()*3, "x")
		x0[i] = rng.Float64()
	}
	var rows [][]Term
	for k := 0; k < 2+rng.Intn(3); k++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, T(i, float64(1+rng.Intn(3))))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, T(0, 1))
		}
		rows = append(rows, terms)
	}
	rhsOf := func(terms []Term) float64 {
		s := 0.0
		for _, t := range terms {
			s += t.Coef * x0[t.Var]
		}
		return s
	}
	for _, terms := range rows {
		p.AddConstraint(Constraint{Terms: terms, Rel: EQ, RHS: rhsOf(terms)})
	}
	// Duplicates, scaled copies and a sum of two rows.
	p.AddConstraint(Constraint{Terms: rows[0], Rel: EQ, RHS: rhsOf(rows[0])})
	scaled := make([]Term, len(rows[1]))
	for i, t := range rows[1] {
		scaled[i] = T(t.Var, 2*t.Coef)
	}
	p.AddConstraint(Constraint{Terms: scaled, Rel: EQ, RHS: rhsOf(scaled)})
	sum := append(append([]Term(nil), rows[0]...), rows[1]...)
	p.AddConstraint(Constraint{Terms: sum, Rel: EQ, RHS: rhsOf(sum)})
	return p
}

// boxFlipLP is a maximization over wide boxes with few, loose rows that
// hold at a random point of the box, so most entering columns cross to
// their opposite bound (bound flips) instead of pivoting.
func boxFlipLP(rng *rand.Rand) *Problem {
	p := NewProblem(Maximize)
	n := 8 + rng.Intn(12)
	x0 := make([]float64, n)
	for i := 0; i < n; i++ {
		lo := float64(rng.Intn(3)) - 1
		w := 1 + rng.Float64()*4
		p.AddVar(rng.Float64()*6-2, lo, lo+w, "x")
		x0[i] = lo + w*rng.Float64()
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		var terms []Term
		lhs := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				c := rng.Float64()*2 - 0.5
				terms = append(terms, T(i, c))
				lhs += c * x0[i]
			}
		}
		if len(terms) == 0 {
			terms = append(terms, T(0, 1))
			lhs = x0[0]
		}
		if rng.Intn(2) == 0 {
			p.AddConstraint(Constraint{Terms: terms, Rel: LE, RHS: lhs + rng.Float64()})
		} else {
			p.AddConstraint(Constraint{Terms: terms, Rel: GE, RHS: lhs - rng.Float64()})
		}
	}
	return p
}

// fixedEqLP is a sparse equality-heavy LP that holds at an integral point
// x0, solved with a random half of its variables fixed at x0: it stays
// feasible, and rows left with only fixed columns keep their artificial
// basic after phase 1, so driveOutArtificials exchanges it for a fixed
// column.
func fixedEqLP(rng *rand.Rand) (*Problem, [][2]float64) {
	p := NewProblem(Minimize)
	n := 20 + rng.Intn(30)
	x0 := make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			p.AddBinaryVar(rng.Float64()*4-2, "b")
		} else {
			p.AddVar(rng.Float64()*4-2, 0, 3, "w")
		}
		x0[i] = float64(rng.Intn(2))
	}
	for k := 0; k < n/2+rng.Intn(n/2); k++ {
		var terms []Term
		rhs := 0.0
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				c := float64(rng.Intn(3) + 1)
				if rng.Intn(2) == 0 {
					c = -c
				}
				terms = append(terms, T(i, c))
				rhs += c * x0[i]
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := EQ
		if rng.Intn(4) == 0 {
			rel = GE
		}
		p.AddConstraint(Constraint{Terms: terms, Rel: rel, RHS: rhs})
	}
	ov := p.DefaultOverrides()
	for i := range ov {
		if rng.Intn(2) == 0 {
			ov[i] = [2]float64{x0[i], x0[i]}
		}
	}
	return p, ov
}

// bbChain runs a branch-and-bound-style dive on p: solve, fix the most
// fractional variable (lowest index on ties) to its nearest integer
// (exact halves alternate down and up), and repeat. When a relaxation is
// infeasible the last fixing is moved to the other side once, as a
// backtrack would. The dive ends on an integral relaxation, a second
// infeasible one in a row, or after steps solves. Every relaxation is
// recorded.
func bbChain(name string, p *Problem, steps int, solve func(*Problem, [][2]float64) Solution) []string {
	ov := p.DefaultOverrides()
	var out []string
	last, other := -1, 0.0
	for s := 0; s < steps; s++ {
		sol := solve(p, ov)
		out = append(out, goldenLine(fmt.Sprintf("%s/%d", name, s), sol))
		if sol.Status != Optimal {
			if last < 0 {
				break
			}
			ov[last] = [2]float64{other, other}
			last = -1
			continue
		}
		pick, best := -1, 1e-6
		for j, x := range sol.X {
			f := math.Abs(x - math.Round(x))
			if f > best+1e-12 {
				pick, best = j, f
			}
		}
		if pick < 0 {
			break
		}
		down, up := math.Floor(sol.X[pick]), math.Ceil(sol.X[pick])
		v, w := math.Round(sol.X[pick]), down
		if best == 0.5 && s%2 == 0 {
			v = down
		}
		if v == down {
			w = up
		}
		ov[pick] = [2]float64{v, v}
		last, other = pick, w
	}
	return out
}

// goldenLines solves every fixture case through solve and renders the
// results in a fixed order.
func goldenLines(solve func(*Problem, [][2]float64) Solution) []string {
	var cases []goldenCase
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomMixedLP(rng)
		cases = append(cases, goldenCase{fmt.Sprintf("mixed/%d", seed), p, nil})
		cases = append(cases, goldenCase{fmt.Sprintf("mixed-fixed/%d", seed), p, fixRandomVars(rng, p)})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		p := sparseMixedLP(rng, 30+rng.Intn(40), 15+rng.Intn(30))
		cases = append(cases, goldenCase{fmt.Sprintf("sparse/%d", seed), p, nil})
		cases = append(cases, goldenCase{fmt.Sprintf("sparse-fixed/%d", seed), p, fixRandomVars(rng, p)})
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		p := redundantEqLP(rng)
		cases = append(cases, goldenCase{fmt.Sprintf("redundant/%d", seed), p, nil})
		cases = append(cases, goldenCase{fmt.Sprintf("redundant-fixed/%d", seed), p, fixRandomVars(rng, p)})
	}
	for seed := int64(0); seed < 100; seed++ {
		p, ov := fixedEqLP(rand.New(rand.NewSource(6000 + seed)))
		cases = append(cases, goldenCase{fmt.Sprintf("eq-fixed/%d", seed), p, ov})
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		cases = append(cases, goldenCase{fmt.Sprintf("flip/%d", seed), boxFlipLP(rng), nil})
	}
	var out []string
	for _, c := range cases {
		out = append(out, goldenLine(c.name, solve(c.p, c.ov)))
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		w, h := 3+int(seed%3), 3+int(seed/3)
		out = append(out, bbChain(fmt.Sprintf("grid%dx%d", w, h), gridPathLP(w, h, 2, rng), 60, solve)...)
	}
	out = append(out, bbChain("grid7x6", gridPathLP(7, 6, 2, rand.New(rand.NewSource(4100))), 80, solve)...)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(5000 + seed))
		out = append(out, bbChain(fmt.Sprintf("chain/%d", seed), sparseMixedLP(rng, 40, 25), 40, solve)...)
	}
	return out
}

// TestSolveTabGolden pins every SolveTab result bit for bit: status, the
// bits of Obj and of every X entry, over seeded mixed LPs, larger sparse
// LPs and redundant equality rows, each with and without fixings,
// bound-flip-heavy boxes, and branch-and-bound dives on grid path LPs. It runs once with a
// fresh tableau per solve and once through one shared tableau, so scratch
// reuse across shapes cannot leak state. Regenerate with -update only for
// a deliberate change of pivoting arithmetic.
func TestSolveTabGolden(t *testing.T) {
	ctx := context.Background()
	fresh := func(p *Problem, ov [][2]float64) Solution {
		sol, err := p.SolveTab(ctx, ov, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	shared := NewTableau()
	reused := func(p *Problem, ov [][2]float64) Solution {
		sol, err := p.SolveTab(ctx, ov, shared)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	got := goldenLines(fresh)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run go test ./internal/lp -run Golden -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for leg, lines := range map[string][]string{"fresh": got, "shared": goldenLines(reused)} {
		if len(lines) != len(want) {
			t.Fatalf("%s: %d results, fixture has %d", leg, len(lines), len(want))
		}
		bad := 0
		for i := range want {
			if lines[i] != want[i] {
				if bad < 5 {
					t.Errorf("%s: result diverged\n got: %s\nwant: %s", leg, lines[i], want[i])
				}
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d results diverged", leg, bad, len(want))
		}
	}
}
