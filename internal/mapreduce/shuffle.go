package mapreduce

import (
	"bytes"
	"slices"
	"strings"
)

// The host's execution geometry. A job's simulated shape — map tasks from
// split sizes, reduce tasks from cluster slots — is what the cost model
// charges and the fault plan schedules; it says nothing about the machine
// the engine runs on (at test scale every input is one simulated task, and
// FacebookCluster has 2 988 reduce tasks). Host work is therefore cut by
// the three sizes below, from Engine.workers and the sizes actually
// observed, and never from NumMapTasks, NumReduceTasks or the Cluster. A
// job too small to cut runs as one morsel per task, one partition and one
// run, inline on the driver.
const (
	// morselLines is the map phase's unit: a task's chunk is cut into
	// morsels of this many input lines.
	morselLines = 1024
	// partitionPairs is the least number of map-output pairs worth a shuffle
	// partition of their own.
	partitionPairs = 2048
	// runValues is the least number of reduce-input values worth a key run
	// (and a reducer instance) of their own; runsPerWorker oversubscribes
	// the pool so uneven runs still balance.
	runValues     = 512
	runsPerWorker = 4
	// maxPartitions keeps a partition id in a byte and the merge's scan over
	// partition heads short.
	maxPartitions = 16
)

// pairList is the map output of one unit of host work — a morsel, or a
// simulated task once its combiner ran — with the counters the driver sums.
type pairList struct {
	pairs    []kv
	bytes    int64 // encoded size of pairs
	filtered int64 // lines the input's Prefilter rejected before the mapper
}

// keyGroup is one reduce key with its values in map-output order: a capped
// window of its partition's values slab.
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
			morsels = append(morsels, mapTask{input: t.input, chunk: chunk[:morselLines]})
			chunk = chunk[morselLines:]
		}
		morsels = append(morsels, mapTask{input: t.input, chunk: chunk})
	}
	return morsels, append(first, len(morsels))
}

// groupPairs groups pairs by key, keys in first-seen order and every key's
// values in list order. parts selects the pairs: with parts[l][i] the
// partition of lists[l].pairs[i], only partition p's pairs are grouped; nil
// parts selects them all. A first pass numbers the keys and counts their
// values, a second drops each value into its key's window of one values
// slab sized by the number of selected pairs.
func groupPairs(lists []pairList, parts [][]uint8, p uint8) []keyGroup {
	n := 0 // selected pairs
	for l := range lists {
		if parts == nil {
			n += len(lists[l].pairs)
		} else {
			n += bytes.Count(parts[l], []byte{p})
		}
	}
	index := make(map[string]int) // key -> position in groups
	var groups []keyGroup
	var next []int // per group: its value count, then where its next value goes
	groupOf := make([]int, 0, n)
	g := -1
	for l := range lists {
		var part []uint8
		if parts != nil {
			part = parts[l]
		}
		for i := range lists[l].pairs {
			if part != nil && part[i] != p {
				continue
			}
			// Sorted inputs emit a key's pairs back to back; only a change
			// of key pays for the map.
			if key := lists[l].pairs[i].key; g < 0 || groups[g].key != key {
				var ok bool
				if g, ok = index[key]; !ok {
					g = len(groups)
					index[key] = g
					groups = append(groups, keyGroup{key: key})
					next = append(next, 0)
				}
			}
			groupOf = append(groupOf, g)
			next[g]++
		}
	}
	sum := 0
	for g, c := range next {
		next[g], sum = sum, sum+c
	}
	values := make([]string, n)
	sel := 0
	for l := range lists {
		var part []uint8
		if parts != nil {
			part = parts[l]
		}
		for i := range lists[l].pairs {
			if part != nil && part[i] != p {
				continue
			}
			g := groupOf[sel]
			values[next[g]] = lists[l].pairs[i].value
			next[g]++
			sel++
		}
	}
	lo := 0
	for g, hi := range next {
		// Capped, so a reducer or combiner appending to its input cannot
		// reach the next group's values.
		groups[g].values = values[lo:hi:hi]
		lo = hi
	}
	return groups
}

// hostPartitions is the number of shuffle partitions n map-output pairs
// are grouped in.
func (e *Engine) hostPartitions(n int) int {
	return max(1, min(e.workers, n/partitionPairs, maxPartitions))
}

// shuffle groups the job's map-output pairs by key and returns the groups
// in sorted key order, every key's values in map-output order. Pairs are
// hash-partitioned by key into nParts host partitions (hostPartitions of
// the pair count; at most maxPartitions); each partition groups and sorts
// its own keys on the worker pool, and since partitions share no key a
// merge of their sorted lists is the global order. The bodies cannot fail:
// an error is the run's context stopping the shuffle.
func (e *Engine) shuffle(lists []pairList, nParts int) ([]keyGroup, error) {
	if nParts == 1 {
		groups := groupPairs(lists, nil, 0)
		sortGroups(groups)
		return groups, nil
	}
	// Every key is hashed once, list by list; a partition then picks its
	// pairs out of every list, in list order, by the recorded byte.
	parts := make([][]uint8, len(lists))
	err := e.forEachTask(len(lists), func(l int) error {
		part := make([]uint8, len(lists[l].pairs))
		for i := range part {
			part[i] = uint8(partitionOf(lists[l].pairs[i].key, nParts))
		}
		parts[l] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	parted := make([][]keyGroup, nParts)
	err = e.forEachTask(nParts, func(p int) error {
		groups := groupPairs(lists, parts, uint8(p))
		sortGroups(groups)
		parted[p] = groups
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeGroups(parted), nil
}

func sortGroups(groups []keyGroup) {
	slices.SortFunc(groups, func(a, b keyGroup) int { return strings.Compare(a.key, b.key) })
}

// mergeGroups merges sorted group lists that share no key into one sorted
// list.
func mergeGroups(parted [][]keyGroup) []keyGroup {
	n := 0
	for _, groups := range parted {
		n += len(groups)
	}
	out := make([]keyGroup, 0, n)
	heads := make([]int, len(parted))
	for len(out) < n {
		best := -1
		for p, h := range heads {
			if h < len(parted[p]) && (best < 0 || parted[p][h].key < parted[best][heads[best]].key) {
				best = p
			}
		}
		out = append(out, parted[best][heads[best]])
		heads[best]++
	}
	return out
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

// keyRun is one contiguous run of the sorted key list, the unit one reducer
// instance reduces, with the lines it emitted and what the instance counted.
type keyRun struct {
	groups []keyGroup
	lines  []string
	counts ReduceCounts
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
