// Package determinism is the golden corpus for the determinism
// analyzer: wall-clock reads, global math/rand draws, and map-ordered
// emission are flagged; seeded generators and collect-then-sort loops
// are not.
package determinism

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func globalRand() int {
	return rand.Intn(10) // want "rand.Intn draws from the global generator"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, k int) { xs[i], xs[k] = xs[k], xs[i] }) // want "rand.Shuffle draws from the global generator"
}

func seededRand(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors are the supported path
	return r.Float64()                  // methods on a seeded *rand.Rand are fine
}

func emitUnsorted(groups map[string][]string, emit func(string)) {
	for k := range groups { // want "map iteration order feeds a call to emit"
		emit(k)
	}
}

func appendUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration order feeds an append to out"
		out = append(out, k)
	}
	return out
}

func appendThenSort(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // collect-then-sort restores a deterministic order
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func localScratch(m map[string]int) int {
	n := 0
	for range m { // no emission escapes the loop
		n++
	}
	return n
}

func sliceRange(xs []string, emit func(string)) {
	for _, x := range xs { // slice order is deterministic
		emit(x)
	}
}

// --- interprocedural: sources reached through in-module helpers ---

func callsWallClock() int64 {
	return wallClock().UnixNano() // want "call to determinism.wallClock reaches time.Now \(wall clock\) via determinism.wallClock"
}

func helperRand() int {
	return globalRand() // want "call to determinism.globalRand reaches the global rand.Intn via determinism.globalRand"
}

func viaChain() int {
	return helperRand() // want "call to determinism.helperRand reaches the global rand.Intn via determinism.helperRand -> determinism.globalRand"
}

// handsOffClock lets a tainted function escape as a value; whoever
// receives it can call it, so the reference itself is flagged.
func handsOffClock() func() time.Time {
	return wallClock // want "reference to determinism.wallClock reaches time.Now \(wall clock\) via determinism.wallClock"
}

// callsSeeded: helpers that stick to seeded generators taint nothing.
func callsSeeded() float64 {
	return seededRand(7)
}

// oracle has no in-module implementation, so a call through it cannot
// be bounded; the conservative assume-nondeterministic default fires.
type oracle interface{ Draw() int }

func viaOracle(o oracle) int {
	return o.Draw() // want "dynamic call is unresolvable \(no in-module implementation of oracle.Draw\); assume nondeterministic"
}

// --- sort.Slice comparators: NaN-unsafe float orders and map-derived keys ---

func sortScores(xs []float64) {
	sort.Slice(xs, func(i, k int) bool { return xs[i] < xs[k] }) // want "sort.Slice comparator orders floats without math.IsNaN handling"
}

func sortScoresDesc(xs []float64) {
	sort.SliceStable(xs, func(i, k int) bool { return xs[i] > xs[k] }) // want "sort.SliceStable comparator orders floats without math.IsNaN handling"
}

// sortScoresTotal guards NaN explicitly, so the order is total: clean.
func sortScoresTotal(xs []float64) {
	sort.Slice(xs, func(i, k int) bool {
		if math.IsNaN(xs[i]) || math.IsNaN(xs[k]) {
			return math.IsNaN(xs[i]) && !math.IsNaN(xs[k])
		}
		return xs[i] < xs[k]
	})
}

func sortByCount(keys []string, counts map[string]int) {
	sort.Slice(keys, func(i, k int) bool { return counts[keys[i]] < counts[keys[k]] }) // want "sort.Slice comparator orders by map-derived values with no tie-break"
}

// sortByCountTieBreak falls back to the key itself on equal counts, so
// equal-valued elements have a deterministic order: clean.
func sortByCountTieBreak(keys []string, counts map[string]int) {
	sort.Slice(keys, func(i, k int) bool {
		if counts[keys[i]] != counts[keys[k]] {
			return counts[keys[i]] < counts[keys[k]]
		}
		return keys[i] < keys[k]
	})
}

// sortInts orders by a plain int slice element: clean.
func sortInts(xs []int) {
	sort.Slice(xs, func(i, k int) bool { return xs[i] < xs[k] })
}

// callsNaNSort: the comparator fact propagates through the call graph
// like any other nondeterminism source.
func callsNaNSort(xs []float64) {
	sortScores(xs) // want "call to determinism.sortScores reaches a NaN-unsafe float sort comparator via determinism.sortScores"
}

// --- collect-then-sort must sort the collected slice ---

// sortsOtherSlice sorts after the loop, but not the slice the loop grew:
// tables keeps the map's order.
func sortsOtherSlice(shared map[string]int, scans []int) ([]string, []int) {
	tables := make([]string, 0, len(shared))
	for t := range shared { // want "map iteration order feeds an append to tables without a later sort"
		tables = append(tables, t)
	}
	sort.Ints(scans)
	return tables, scans
}

// sortsBothSlices orders the grown slice as well: clean.
func sortsBothSlices(shared map[string]int, scans []int) ([]string, []int) {
	tables := make([]string, 0, len(shared))
	for t := range shared {
		tables = append(tables, t)
	}
	sort.Ints(scans)
	sort.Strings(tables)
	return tables, scans
}
