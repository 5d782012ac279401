package mapreduce

import (
	"hash/fnv"
	"testing"
)

// FuzzPartitionOf checks the shuffle partitioner's contract for arbitrary
// keys: the result is always in [0, numReduce), stable across repeated
// calls, collapses to 0 for a single partition, and matches the
// documented FNV-32a definition — the function JobStats' reducer sizes
// (reducerSizes) lean on.
func FuzzPartitionOf(f *testing.F) {
	f.Add("", uint8(1))
	f.Add("alpha", uint8(4))
	f.Add("the\tquick\x00fox", uint8(63))
	f.Fuzz(func(t *testing.T, key string, n uint8) {
		numReduce := int(n%64) + 1
		p := partitionOf(key, numReduce)
		if p < 0 || p >= numReduce {
			t.Fatalf("partitionOf(%q, %d) = %d, out of range", key, numReduce, p)
		}
		if q := partitionOf(key, numReduce); q != p {
			t.Fatalf("partitionOf(%q, %d) unstable: %d then %d", key, numReduce, p, q)
		}
		if partitionOf(key, 1) != 0 {
			t.Fatalf("partitionOf(%q, 1) != 0", key)
		}
		h := fnv.New32a()
		_, _ = h.Write([]byte(key))
		if want := int(h.Sum32() % uint32(numReduce)); p != want {
			t.Fatalf("partitionOf(%q, %d) = %d, want FNV-32a %% n = %d", key, numReduce, p, want)
		}
	})
}
