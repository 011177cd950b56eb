package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks, or NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of the map's values, NaN when empty
// or when a value is not positive.
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range m {
		if v <= 0 {
			return math.NaN()
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(m)))
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it, and false when n is too small for
// any (fewer than 20 samples).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// counts tallies operations attempted and failed. An operation fails when
// it returns an error, is interrupted, lacks full coverage, or fails any
// output check.
type counts struct {
	attempted, failed int
}

// add records one operation; a non-nil err marks it failed.
func (c *counts) add(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// failedFrac returns failed/attempted, 0 when nothing was attempted.
func (c counts) failedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// validName reports whether s is a valid metric or workload name: it
// starts with a letter or digit and is made of at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a valid metric unit: at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for _, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && r != '_' && r != '/' && r != '%' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is a set of named metrics.
type metricSet struct {
	vals map[string]metric
}

// set records a metric; it rejects invalid names and units, duplicate
// names and non-finite values, so a malformed result is never printed.
func (m *metricSet) set(name, unit string, v float64) error {
	if !validName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if !validUnit(unit) {
		return fmt.Errorf("metric %s: invalid unit %q", name, unit)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: non-finite value %v", name, v)
	}
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, dup := m.vals[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	return nil
}
