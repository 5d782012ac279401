package mapreduce

import (
	"slices"
	"strings"
)

// The host's execution geometry. A job's simulated shape — map tasks from
// split sizes, reduce tasks from cluster slots — is what the cost model
// charges and the fault plan schedules; it says nothing about the machine
// the engine runs on (at test scale every input is one simulated task, and
// FacebookCluster has 2 988 reduce tasks). Host work is therefore cut by
// the sizes below, from Engine.workers and the sizes actually observed,
// and never from NumMapTasks, NumReduceTasks or the Cluster. A job too
// small to cut runs as one morsel per task and one run, inline on the
// driver.
const (
	// morselLines is the map phase's unit: a task's chunk is cut into
	// morsels of this many input lines.
	morselLines = 1024
	// runValues is the least number of reduce-input values worth a key run
	// of their own; runsPerWorker oversubscribes the pool so uneven runs
	// still balance. Runs cost no reducer instance: a worker reduces all the
	// runs it takes on one (Engine.reduce).
	runValues     = 512
	runsPerWorker = 4
)

// keyGroup is one reduce key with its values in map-output order: a capped
// window of one values slab shared by the job's groups.
type keyGroup struct {
	key    string
	values []string
}

// cutMorsels cuts every task's chunk into morsels of at most morselLines
// lines. first[t] is task t's first morsel (first[len(tasks)] the morsel
// count); when no chunk is longer than a morsel the tasks are their own
// morsels and first is nil.
func cutMorsels(tasks []mapTask) (morsels []mapTask, first []int) {
	n := 0
	for _, t := range tasks {
		n += max(1, (len(t.chunk)+morselLines-1)/morselLines)
	}
	if n == len(tasks) {
		return tasks, nil
	}
	morsels = make([]mapTask, 0, n)
	first = make([]int, 0, len(tasks)+1)
	for _, t := range tasks {
		first = append(first, len(morsels))
		chunk := t.chunk
		for len(chunk) > morselLines {
			morsels = append(morsels, mapTask{in: t.in, chunk: chunk[:morselLines]})
			chunk = chunk[morselLines:]
		}
		morsels = append(morsels, mapTask{in: t.in, chunk: chunk})
	}
	return morsels, append(first, len(morsels))
}

// grouping holds the containers groupPairs fills: the map from key to
// count and then to group index, the groups and the values slab. A scratch
// carries one for the driver's shuffle and one for each worker's combiner
// (scratch.go), so a job reuses what an earlier job grew. Each slice's
// length is the most a call of the current job used, which release clears.
type grouping struct {
	count  map[string]int
	groups []keyGroup
	values []string
}

// groupPairs groups every pair of lists by key: keys in sorted order, every
// key's values in list order. It counts, then places: a first pass adds
// each key's values up, one slab of every value is cut into a capped
// window per key, sized by its count, and a second pass appends each value
// to its key's window. Both passes walk key runs, since sorted inputs emit
// a key's pairs back to back: only a change of key pays for the map. The
// groups and their values are g's until its next call or release.
func (g *grouping) groupPairs(lists []pairList) []keyGroup {
	if g.count == nil {
		g.count = make(map[string]int)
	}
	count := g.count // key -> its value count, then its group's index
	clear(count)
	n := 0
	for l := range lists {
		list := &lists[l]
		n += list.len()
		key, run := "", 0
		for i := range list.segs {
			s, p, end := list.segment(i)
			for off := int32(0); p < end; p++ {
				k := s[off:list.ends[2*p]]
				off = list.ends[2*p+1]
				if run > 0 && k == key {
					run++
					continue
				}
				if run > 0 {
					count[key] += run
				}
				key, run = k, 1
			}
		}
		if run > 0 {
			count[key] += run
		}
	}
	groups := slices.Grow(g.groups[:0], len(count))
	for key := range count {
		groups = append(groups, keyGroup{key: key})
	}
	slices.SortFunc(groups, func(a, b keyGroup) int { return strings.Compare(a.key, b.key) })
	values := slices.Grow(g.values[:0], n)[:n]
	lo := 0
	for i := range groups {
		hi := lo + count[groups[i].key]
		// Capped, so a reducer or combiner appending to its input cannot
		// reach the next group's values.
		groups[i].values = values[lo:lo:hi]
		count[groups[i].key] = i
		lo = hi
	}
	for l := range lists {
		list := &lists[l]
		var kg *keyGroup
		for i := range list.segs {
			s, p, end := list.segment(i)
			for off := int32(0); p < end; p++ {
				k, v := list.ends[2*p], list.ends[2*p+1]
				if key := s[off:k]; kg == nil || key != kg.key {
					kg = &groups[count[key]]
				}
				kg.values = append(kg.values, s[k:v])
				off = v
			}
		}
	}
	// g keeps the longest length a call of the job used (a shorter call
	// reuses the same array), so release clears every string any call left.
	if len(groups) > len(g.groups) {
		g.groups = groups
	}
	if n > len(g.values) {
		g.values = values
	}
	return groups
}

// release clears every string g holds, once the job's groups are dead, so
// a carried grouping pins no chunk of a finished job; the map's buckets and
// the arrays stay for the next job.
func (g *grouping) release() {
	clear(g.count)
	clear(g.groups)
	clear(g.values)
	g.groups, g.values = g.groups[:0], g.values[:0]
}

// reducerSizes reports the largest share of groups and of values any one
// simulated reduce task receives under the job's hash partitioning: the
// reducer size q of Afrati et al. Counted per key, never per pair.
func reducerSizes(groups []keyGroup, numReduce int) (maxGroups, maxValues int64) {
	var buf [64][2]int64 // {groups, values} per reduce task, on the stack for every cluster but the largest
	sizes := buf[:]
	if numReduce > len(buf) {
		sizes = make([][2]int64, numReduce)
	}
	for i := range groups {
		size := &sizes[partitionOf(groups[i].key, numReduce)]
		size[0]++
		size[1] += int64(len(groups[i].values))
	}
	for _, size := range sizes[:numReduce] {
		maxGroups, maxValues = max(maxGroups, size[0]), max(maxValues, size[1])
	}
	return maxGroups, maxValues
}

// keyRun is one contiguous run of the sorted key list, the reduce phase's
// work item, with where its lines lie: lines[lo:hi] of the line slice of
// the worker whose reducer instance emitted them (see Engine.reduce).
type keyRun struct {
	groups         []keyGroup
	worker, lo, hi int
}

// cutRuns cuts the sorted key list into contiguous runs of about equal
// value count, never splitting a key, and returns at least one run: with
// one worker, or when the n values are one run's worth, the one run is
// every group. A key holding most of the values makes one long run and the
// others share the rest.
func (e *Engine) cutRuns(groups []keyGroup, n int) []keyRun {
	nRuns := 1
	if e.workers > 1 {
		nRuns = max(1, min(e.workers*runsPerWorker, n/runValues, len(groups)))
	}
	runs := make([]keyRun, 0, nRuns)
	lo, seen := 0, 0 // the open run's first group; values in groups[:i]
	for i := range groups {
		// Cut before group i once the runs so far hold their share.
		if r := len(runs) + 1; r < nRuns && seen >= r*n/nRuns {
			runs = append(runs, keyRun{groups: groups[lo:i]})
			lo = i
		}
		seen += len(groups[i].values)
	}
	return append(runs, keyRun{groups: groups[lo:]})
}
