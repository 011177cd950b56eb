package lp

// bounded.go is the production simplex: a two-phase primal simplex with
// implicit (bounded-variable) upper bounds over a sparse-row tableau kept
// in a flat, reusable Tableau scratch.
//
// The baseline engine (baseline.go) materializes one `y_i <= ub-lb` row
// per finite upper bound, so on the all-binary DFT models every variable
// adds a row. Here finite bounds are handled by the standard
// nonbasic-at-lower/nonbasic-at-upper technique with a bound-flip ratio
// test, which keeps only the true constraint rows.
//
// The matrix values live in a dense row-major array, but every row also
// carries a list of the columns that may be nonzero in it, with a
// membership bitset. A pivot scales the pivot row over its list, then
// updates only the rows with a nonzero in the entering column, and only
// at the pivot row's nonzero columns; the pivot row's columns missing
// from an updated row's bitset are its fill-in and join its list. On the
// paper's path ILP (IVD_chip: 191 rows, 535 columns) a pivot row has ~10
// nonzeros and the entering column ~8, so a pivot costs ~100
// multiply-adds instead of ~4,000 dense element visits. Every
// floating-point operation that can produce a nonzero is the same
// operation, in the same per-element order, as a dense sweep would do, so
// results are bit-identical to the dense kernel this replaced
// (testdata/solvetab_golden.txt pins them).
//
// The scratch is re-populated in place on every solve, so a warm Tableau
// performs no allocations; package ilp keeps one per branch-and-bound
// worker.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Tableau is reusable scratch storage for SolveTab. The zero value is
// ready to use (NewTableau is provided for clarity); a Tableau grows to
// the largest problem it has seen and is then allocation-free. It is not
// safe for concurrent use — callers that solve in parallel keep one
// Tableau per worker.
type Tableau struct {
	m        int // constraint rows
	nOrig    int // original variable count
	nTot     int // total columns (orig + slack/surplus + artificial)
	artStart int // first artificial column
	words    int // uint64 words per row of mark

	// a is the m×nTot matrix, row-major. Between solves it is zero except
	// at the entries listed in cols, which is how load clears it.
	a []float64
	// cols[i] lists the columns that may be nonzero in row i: a superset
	// of the row's nonzeros, each column at most once. mark is the
	// matching membership bitset, words uint64 words per row.
	cols [][]int32
	mark []uint64
	// colRows collects the rows with a nonzero in the column being
	// pivoted on.
	colRows []int32

	b       []float64 // current value of each row's basic variable
	u       []float64 // working upper bound per column (shifted space)
	z       []float64 // reduced costs
	cobj    []float64 // current phase objective
	basis   []int     // basic column per row
	basic   []bool    // column-is-basic flags
	atUpper []bool    // nonbasic-at-upper flags
	lb, ub  []float64 // working bounds of the original variables
	x       []float64 // decoded solution (aliased by Solution.X)
	flip    []bool    // row-negated flags from RHS normalization
	rel     []Rel     // normalized row relations
	rhs     []float64 // normalized row RHS

	ctx context.Context
}

// NewTableau returns an empty scratch tableau for SolveTab.
func NewTableau() *Tableau { return &Tableau{} }

// SolveTab is SolveCtx solving into the given scratch tableau instead of
// allocating a fresh one. The returned Solution's X slice aliases the
// scratch and is valid only until the next SolveTab call on the same
// Tableau; callers that keep a solution copy it first. Passing a nil
// tableau allocates one.
func (p *Problem) SolveTab(ctx context.Context, overrides [][2]float64, t *Tableau) (Solution, error) {
	if t == nil {
		t = NewTableau()
	}
	n := len(p.obj)
	if overrides != nil && len(overrides) != n {
		return Solution{}, errors.New("lp: overrides length mismatch")
	}
	t.lb = growFloats(t.lb, n)
	t.ub = growFloats(t.ub, n)
	copy(t.lb, p.lb)
	copy(t.ub, p.ub)
	if overrides != nil {
		// Overrides replace bounds wholesale: callers start from
		// DefaultOverrides() and tighten selected variables, so a [0,0]
		// entry means "fix to zero", not "unset".
		for i, b := range overrides {
			t.lb[i] = b[0]
			t.ub[i] = b[1]
			if t.lb[i] > t.ub[i]+eps {
				return Solution{Status: Infeasible}, nil
			}
			if t.lb[i] > t.ub[i] {
				t.lb[i] = t.ub[i]
			}
		}
	}
	for _, c := range p.cons {
		for _, term := range c.Terms {
			if term.Var < 0 || term.Var >= n {
				return Solution{}, fmt.Errorf("lp: constraint references variable %d of %d", term.Var, n)
			}
		}
	}
	t.ctx = ctx
	sol := t.run(p)
	if sol.Status == Canceled {
		return sol, ctx.Err()
	}
	return sol, nil
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growRels(s []Rel, n int) []Rel {
	if cap(s) < n {
		return make([]Rel, n)
	}
	return s[:n]
}

// has reports whether column j is on row i's list.
func (t *Tableau) has(i, j int) bool {
	return t.mark[i*t.words+j>>6]&(1<<(uint(j)&63)) != 0
}

// add puts column j on row i's list; the caller has checked has(i, j).
func (t *Tableau) add(i, j int) {
	t.mark[i*t.words+j>>6] |= 1 << (uint(j) & 63)
	t.cols[i] = append(t.cols[i], int32(j))
}

// unload returns the matrix and the membership bitset to all zero, the
// state load builds on. Only listed entries can be nonzero, so this costs
// the previous solve's nonzeros, not m×nTot.
func (t *Tableau) unload() {
	for i := 0; i < t.m; i++ {
		base, mbase := i*t.nTot, i*t.words
		for _, j := range t.cols[i] {
			t.a[base+int(j)] = 0
			t.mark[mbase+int(j>>6)] = 0
		}
		t.cols[i] = t.cols[i][:0]
	}
}

// load rebuilds the tableau in place for problem p under the working
// bounds t.lb/t.ub. Variables are shifted by their lower bound (y = x-lb)
// so every column lives in [0, u]; rows are normalized to nonnegative RHS
// with relation flips; slack/surplus columns are added per row and
// artificial columns for >=/= rows.
func (t *Tableau) load(p *Problem) {
	t.unload()
	n := len(p.obj)
	m := len(p.cons)
	t.nOrig = n
	t.m = m
	t.rhs = growFloats(t.rhs, m)
	t.rel = growRels(t.rel, m)
	t.flip = growBools(t.flip, m)
	nSlack, nArt := 0, 0
	for i := range p.cons {
		c := &p.cons[i]
		rhs := c.RHS
		for _, term := range c.Terms {
			rhs -= term.Coef * t.lb[term.Var]
		}
		rel := c.Rel
		flip := rhs < 0
		if flip {
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		t.rhs[i] = rhs
		t.rel[i] = rel
		t.flip[i] = flip
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	t.artStart = n + nSlack
	t.nTot = t.artStart + nArt
	t.words = (t.nTot + 63) >> 6

	// unload left every reused element zero; fresh growth is zeroed too.
	t.a = growFloats(t.a, m*t.nTot)
	if cap(t.mark) < m*t.words {
		t.mark = make([]uint64, m*t.words)
	}
	t.mark = t.mark[:m*t.words]
	if cap(t.cols) < m {
		cols := make([][]int32, m)
		copy(cols, t.cols[:cap(t.cols)])
		t.cols = cols
	}
	t.cols = t.cols[:m]
	t.b = growFloats(t.b, m)
	t.u = growFloats(t.u, t.nTot)
	t.basis = growInts(t.basis, m)
	t.basic = growBools(t.basic, t.nTot)
	t.atUpper = growBools(t.atUpper, t.nTot)
	for j := 0; j < n; j++ {
		t.u[j] = t.ub[j] - t.lb[j] // may be +Inf
	}
	for j := n; j < t.nTot; j++ {
		t.u[j] = math.Inf(1)
	}
	for j := 0; j < t.nTot; j++ {
		t.basic[j] = false
		t.atUpper[j] = false
	}

	slackCol := n
	artCol := t.artStart
	for i := range p.cons {
		c := &p.cons[i]
		row := t.a[i*t.nTot : (i+1)*t.nTot]
		sign := 1.0
		if t.flip[i] {
			sign = -1
		}
		for _, term := range c.Terms {
			if !t.has(i, term.Var) {
				t.add(i, term.Var)
			}
			row[term.Var] += sign * term.Coef
		}
		t.b[i] = t.rhs[i]
		switch t.rel[i] {
		case LE:
			row[slackCol] = 1
			t.add(i, slackCol)
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			t.add(i, slackCol)
			slackCol++
			row[artCol] = 1
			t.add(i, artCol)
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.add(i, artCol)
			t.basis[i] = artCol
			artCol++
		}
		t.basic[t.basis[i]] = true
	}
}

// run executes phase 1 (when artificials exist) then phase 2 and decodes
// the solution.
func (t *Tableau) run(p *Problem) Solution {
	t.load(p)
	if t.nTot > t.artStart {
		t.cobj = growFloats(t.cobj, t.nTot)
		for j := 0; j < t.artStart; j++ {
			t.cobj[j] = 0
		}
		for j := t.artStart; j < t.nTot; j++ {
			t.cobj[j] = 1
		}
		obj, status := t.optimize(t.nTot)
		if status == IterLimit || status == Canceled {
			return Solution{Status: status}
		}
		if obj > 1e-6 {
			return Solution{Status: Infeasible}
		}
		t.driveOutArtificials()
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	t.cobj = growFloats(t.cobj, t.nTot)
	for j := 0; j < t.nTot; j++ {
		t.cobj[j] = 0
	}
	for j := 0; j < t.nOrig; j++ {
		t.cobj[j] = sign * p.obj[j]
	}
	_, status := t.optimize(t.artStart) // artificials may not re-enter
	switch status {
	case Unbounded:
		return Solution{Status: Unbounded}
	case IterLimit:
		return Solution{Status: IterLimit}
	case Canceled:
		return Solution{Status: Canceled}
	}
	// Decode: nonbasic columns sit at a bound, basic ones carry b.
	t.x = growFloats(t.x, t.nOrig)
	for j := 0; j < t.nOrig; j++ {
		v := 0.0
		if !t.basic[j] && t.atUpper[j] {
			v = t.u[j]
		}
		t.x[j] = v
	}
	for i, bi := range t.basis {
		if bi < t.nOrig {
			t.x[bi] = t.b[i]
		}
	}
	val := 0.0
	for j := 0; j < t.nOrig; j++ {
		t.x[j] += t.lb[j]
		val += p.obj[j] * t.x[j]
	}
	return Solution{Status: Optimal, X: t.x, Obj: val}
}

// objValue evaluates the current phase objective: basic columns carry b,
// nonbasic-at-upper columns carry their bound.
func (t *Tableau) objValue() float64 {
	obj := 0.0
	for i, bi := range t.basis {
		obj += t.cobj[bi] * t.b[i]
	}
	for j := 0; j < t.nTot; j++ {
		if !t.basic[j] && t.atUpper[j] && t.cobj[j] != 0 {
			obj += t.cobj[j] * t.u[j]
		}
	}
	return obj
}

// optimize minimizes t.cobj over the current tableau, with entering
// columns restricted to [0, limit). The reduced-cost row z is maintained
// incrementally across pivots (priced out once at entry, row by row over
// each basic row's list); basic-variable values in b are updated directly
// by each step, so pivots touch only the matrix. Bound-flip iterations (an
// entering column crossing from one finite bound to the other without a
// basis change) are what make implicit upper bounds work.
func (t *Tableau) optimize(limit int) (float64, Status) {
	n := t.nTot
	t.z = growFloats(t.z, n)
	copy(t.z, t.cobj[:n])
	for i, bi := range t.basis {
		cb := t.cobj[bi]
		if cb == 0 {
			continue
		}
		base := i * n
		for _, j := range t.cols[i] {
			if aj := t.a[base+int(j)]; aj != 0 {
				t.z[j] -= cb * aj
			}
		}
	}
	for iter := 0; iter < iterCap; iter++ {
		if iter&ctxCheckMask == 0 && t.ctx != nil && t.ctx.Err() != nil {
			return 0, Canceled
		}
		useBland := iter > blandTrip
		// Entering column: most attractive reduced cost (Dantzig), lowest
		// index on ties; Bland's rule (first improving index) after
		// blandTrip iterations to break degenerate cycles. A column at its
		// lower bound improves when z < 0, one at its upper bound when
		// z > 0; fixed columns (u <= 0) can never move.
		enter := -1
		best := eps
		for j := 0; j < limit; j++ {
			if t.basic[j] || t.u[j] <= 0 {
				continue
			}
			score := -t.z[j]
			if t.atUpper[j] {
				score = t.z[j]
			}
			if score <= eps {
				continue
			}
			if useBland {
				enter = j
				break
			}
			if score > best {
				best = score
				enter = j
			}
		}
		if enter < 0 {
			return t.objValue(), Optimal
		}
		d := 1.0 // direction of travel for the entering variable
		if t.atUpper[enter] {
			d = -1
		}
		// Ratio test: the entering variable moves by step tt, changing row
		// i's basic value at rate -d·a[i][enter]. It is blocked by the
		// first basic variable to hit one of its bounds, or by its own
		// opposite bound (a bound flip). The rows with any nonzero in the
		// entering column are collected on the way: they are the only rows
		// the step can move.
		rowT := 0.0
		leave := -1
		leaveAtUpper := false
		t.colRows = t.colRows[:0]
		for i := 0; i < t.m; i++ {
			ae := t.a[i*n+enter]
			if ae == 0 {
				continue
			}
			t.colRows = append(t.colRows, int32(i))
			if ae < pivotEps && ae > -pivotEps {
				continue
			}
			rate := -d * ae
			var r float64
			var toUpper bool
			if rate < 0 { // basic value decreases toward 0
				r = t.b[i] / -rate
			} else { // basic value increases toward its upper bound
				ubB := t.u[t.basis[i]]
				if math.IsInf(ubB, 1) {
					continue
				}
				r = (ubB - t.b[i]) / rate
				toUpper = true
			}
			if r < 0 {
				r = 0
			}
			switch {
			case leave < 0:
			case r < rowT-eps:
			case useBland && math.Abs(r-rowT) <= eps && t.basis[i] < t.basis[leave]:
			default:
				continue
			}
			rowT = r
			leave = i
			leaveAtUpper = toUpper
		}
		flipT := t.u[enter]
		if leave < 0 {
			if math.IsInf(flipT, 1) {
				return 0, Unbounded
			}
			t.boundFlip(enter, d, flipT)
			continue
		}
		if flipT < rowT-eps {
			t.boundFlip(enter, d, flipT)
			continue
		}
		t.pivotStep(leave, enter, d, rowT, leaveAtUpper)
	}
	return 0, IterLimit
}

// moveValues advances the entering column by step in direction d: every
// row in colRows (the rows with a nonzero in that column) shifts its
// basic value.
func (t *Tableau) moveValues(enter int, d, step float64) {
	n := t.nTot
	for _, i := range t.colRows {
		ae := t.a[int(i)*n+enter]
		t.b[i] -= step * d * ae
	}
}

// boundFlip moves the entering column across its full range to the
// opposite bound: basic values shift, but the basis (and hence the matrix
// and reduced costs) is unchanged.
func (t *Tableau) boundFlip(enter int, d, step float64) {
	t.moveValues(enter, d, step)
	t.clampValues()
	t.atUpper[enter] = !t.atUpper[enter]
}

// pivotStep advances the entering variable by step, retires the blocking
// basic variable to the bound it hit, and performs the Gauss-Jordan pivot
// on the matrix and reduced costs. Basic values are maintained directly,
// so b is not part of the elimination.
func (t *Tableau) pivotStep(leave, enter int, d, step float64, leaveAtUpper bool) {
	if step != 0 {
		t.moveValues(enter, d, step)
	}
	vE := d * step
	if t.atUpper[enter] {
		vE = t.u[enter] + d*step
	}
	r := t.basis[leave]
	t.basic[r] = false
	t.atUpper[r] = leaveAtUpper
	t.basic[enter] = true
	t.atUpper[enter] = false
	t.basis[leave] = enter
	t.b[leave] = vE

	piv := t.eliminate(leave, enter)
	zf := t.z[enter]
	if zf != 0 {
		base := leave * t.nTot
		for _, j := range piv {
			t.z[j] -= zf * t.a[base+int(j)]
		}
		t.z[enter] = 0
	}
	t.clampValues()
}

// eliminate is the sparse Gauss-Jordan pivot on (r, c): it scales row r
// so a[r][c] = 1, pruning row r's list (and bitset) to the columns still
// nonzero after scaling, then clears column c from every other row in
// colRows. Each other row is updated only at those columns, and the
// pivot row's columns it did not list yet (its fill-in) join its list:
// the bitset words of row r not yet set in row i. It returns row r's
// pruned list, which the elimination leaves unchanged.
func (t *Tableau) eliminate(r, c int) []int32 {
	n := t.nTot
	prow := t.a[r*n : (r+1)*n]
	mr := t.mark[r*t.words : (r+1)*t.words]
	inv := 1 / prow[c]
	list := t.cols[r]
	k := 0
	for _, j := range list {
		v := prow[j]
		if v != 0 {
			v *= inv
			prow[j] = v
		}
		if v != 0 {
			list[k] = j
			k++
		} else {
			mr[j>>6] &^= 1 << (uint(j) & 63)
		}
	}
	piv := list[:k]
	t.cols[r] = piv
	prow[c] = 1
	for _, i32 := range t.colRows {
		i := int(i32)
		if i == r {
			continue
		}
		irow := t.a[i*n : (i+1)*n]
		f := irow[c]
		for _, j := range piv {
			irow[j] -= f * prow[j]
		}
		irow[c] = 0
		mi := t.mark[i*t.words : (i+1)*t.words]
		for w, bw := range mr {
			fill := bw &^ mi[w]
			if fill == 0 {
				continue
			}
			mi[w] |= fill
			for ; fill != 0; fill &= fill - 1 {
				t.cols[i] = append(t.cols[i], int32(w<<6+bits.TrailingZeros64(fill)))
			}
		}
	}
	return piv
}

// clampValues snaps tiny out-of-box basic values (numerical drift from
// the manual value updates) back onto the feasible box. Only the rows in
// colRows can have moved since the previous step, which clamped every
// other row already.
func (t *Tableau) clampValues() {
	for _, i := range t.colRows {
		v := t.b[i]
		if v < 0 && v > -eps {
			t.b[i] = 0
			continue
		}
		if ub := t.u[t.basis[i]]; !math.IsInf(ub, 1) && v > ub && v < ub+eps {
			t.b[i] = ub
		}
	}
}

// driveOutArtificials exchanges any artificial variable still basic at
// zero level after phase 1 for a structural column (a degenerate t=0
// pivot: no variable changes value), then erases the artificial columns
// so they can never carry value again. Redundant rows keep their
// artificial basic at zero.
func (t *Tableau) driveOutArtificials() {
	n := t.nTot
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// The lowest-index nonbasic structural column with a usable
		// pivot in this row.
		j := -1
		for _, c32 := range t.cols[i] {
			c := int(c32)
			if c >= t.artStart || t.basic[c] || (j >= 0 && c > j) {
				continue
			}
			if v := t.a[i*n+c]; v > pivotEps || v < -pivotEps {
				j = c
			}
		}
		if j >= 0 {
			t.exchangeAtBound(i, j)
		} else {
			t.b[i] = 0
		}
	}
	for i := 0; i < t.m; i++ {
		list := t.cols[i]
		k := 0
		for _, c := range list {
			if int(c) >= t.artStart && t.basis[i] != int(c) {
				t.a[i*n+int(c)] = 0
				t.mark[i*t.words+int(c>>6)] &^= 1 << (uint(c) & 63)
				continue
			}
			list[k] = c
			k++
		}
		t.cols[i] = list[:k]
	}
}

// exchangeAtBound makes nonbasic column j basic in row i without moving
// any variable: the leaving artificial sits at 0 and j enters at its
// current bound value. Only the matrix needs the Gauss-Jordan update.
func (t *Tableau) exchangeAtBound(i, j int) {
	n := t.nTot
	r := t.basis[i]
	t.basic[r] = false
	t.atUpper[r] = false
	vE := 0.0
	if t.atUpper[j] {
		vE = t.u[j]
	}
	t.basic[j] = true
	t.atUpper[j] = false
	t.basis[i] = j
	t.b[i] = vE

	t.colRows = t.colRows[:0]
	for i2 := 0; i2 < t.m; i2++ {
		if t.a[i2*n+j] != 0 {
			t.colRows = append(t.colRows, int32(i2))
		}
	}
	t.eliminate(i, j)
}
