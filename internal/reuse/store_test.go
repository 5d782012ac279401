package reuse

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
)

// rec stores one entry under key whose encoded size is exactly bytes
// (one line of bytes-1 characters plus the newline the store accounts).
func rec(s *Store, key string, bytes int, predicted float64) {
	s.Record(key, nil, nil, []string{strings.Repeat("x", bytes-1)}, predicted)
}

// hitN looks key up n times to build demonstrated demand.
func hitN(t *testing.T, s *Store, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, ok := s.Lookup(key); !ok {
			t.Fatalf("warm-up lookup %d of %q missed", i, key)
		}
	}
}

// TestEvictionScenarios pins the cost-model eviction policy with
// deterministic scenarios: retention score is
// PredictedSeconds × (1 + Hits) / Bytes, lowest goes first, ties break on
// insertion order. Each scenario names the exact survivors.
func TestEvictionScenarios(t *testing.T) {
	scenarios := []struct {
		name      string
		run       func(t *testing.T, s *Store)
		survivors []string
	}{
		{
			name: "under-cap-keeps-everything",
			run: func(t *testing.T, s *Store) {
				rec(s, "a", 40, 1)
				rec(s, "b", 40, 1)
			},
			survivors: []string{"a", "b"},
		},
		{
			name: "cheapest-seconds-per-byte-goes-first",
			run: func(t *testing.T, s *Store) {
				rec(s, "a", 60, 60) // 1.0 s/byte
				rec(s, "b", 60, 6)  // 0.1 s/byte: the new entry is its own victim
			},
			survivors: []string{"a"},
		},
		{
			name: "hits-raise-retention",
			run: func(t *testing.T, s *Store) {
				rec(s, "a", 60, 10)
				hitN(t, s, "a", 5)  // score 10×6/60 = 1.0
				rec(s, "b", 60, 10) // score 10×1/60 ≈ 0.17
			},
			survivors: []string{"a"},
		},
		{
			name: "equal-scores-evict-oldest",
			run: func(t *testing.T, s *Store) {
				rec(s, "a", 60, 10)
				rec(s, "b", 60, 10)
			},
			survivors: []string{"b"},
		},
		{
			name: "evicts-repeatedly-until-under-cap",
			run: func(t *testing.T, s *Store) {
				rec(s, "a", 30, 1)
				rec(s, "b", 30, 2)
				rec(s, "c", 90, 100)
			},
			survivors: []string{"c"},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := NewStore(100, nil)
			sc.run(t, s)
			if got := s.Keys(); !reflect.DeepEqual(got, sc.survivors) {
				t.Errorf("survivors %v, want %v", got, sc.survivors)
			}
			if s.capBytes > 0 && s.BytesStored() > s.capBytes {
				t.Errorf("stored %d bytes over the %d cap", s.BytesStored(), s.capBytes)
			}
		})
	}
}

// TestRecordReplaceKeepsHits replacing an entry under the same key must
// keep its demonstrated demand, or a refresh would reset its retention.
func TestRecordReplaceKeepsHits(t *testing.T) {
	s := NewStore(0, nil)
	rec(s, "a", 40, 10)
	hitN(t, s, "a", 3)
	rec(s, "a", 50, 10)
	e, ok := s.Lookup("a")
	if !ok {
		t.Fatal("replaced entry missing")
	}
	if e.Hits != 4 { // 3 warm-ups + this lookup
		t.Errorf("Hits = %d after replace, want 4", e.Hits)
	}
	if s.BytesStored() != 50 {
		t.Errorf("BytesStored = %d, want 50 (old bytes released)", s.BytesStored())
	}
}

// TestRecordKeepsDFSLines: an artifact recorded from a DFS read is that
// file's slice, which the DFS ownership rule already makes immutable, so
// the entry aliases it instead of copying it.
func TestRecordKeepsDFSLines(t *testing.T) {
	dfs := mapreduce.NewDFS()
	dfs.Write("out/q", []string{"a\t1", "b\t2"})
	lines, err := dfs.Read("out/q")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(0, nil)
	s.Record("k", nil, nil, lines, 1)
	e, ok := s.Lookup("k")
	if !ok {
		t.Fatal("recorded entry missing")
	}
	if len(e.Lines) != len(lines) || &e.Lines[0] != &lines[0] {
		t.Error("the entry copied the recorded lines instead of keeping them")
	}
	if e.Fingerprint != "k" || e.Bytes != int64(len("a\t1\n")+len("b\t2\n")) {
		t.Errorf("Fingerprint = %q, Bytes = %d; want \"k\" and 8", e.Fingerprint, e.Bytes)
	}
}

// TestStalenessGuard pins where staleness is decided: not in the store.
// The store versions a table only by the epochs its callers hand it — a
// server session's snapshot of the epochs BumpPath advances, or the content
// digests the reuse rewrite takes without one (translator's
// TestReuseContentRule holds the DFS-level cases). It watches no file
// system, so a caller that snapshots the store's own epochs must bump them
// whenever it replaces a table.
func TestStalenessGuard(t *testing.T) {
	t.Run("unwatched-store-serves-stale", func(t *testing.T) {
		dfs := mapreduce.NewDFS()
		dfs.Write("tables/clicks", []string{"old"})
		s := NewStore(0, nil)
		s.Record("k", []string{"tables/clicks"}, s.SnapshotEpochs([]string{"tables/clicks"}), []string{"out"}, 1)
		dfs.Write("tables/clicks", []string{"new"})
		if _, ok := s.Lookup("k"); !ok {
			t.Fatal("a DFS write reached the store: it is meant to see only the epochs its callers pass")
		}
		s.BumpPath("tables/clicks")
		if _, ok := s.Lookup("k"); ok {
			t.Error("entry served after its table's epoch was bumped")
		}
	})
}

// TestLookupAtSnapshot pins the per-session consistency semantics: a
// session that copied its tables before a dataset was re-registered keeps
// hitting the artifacts consistent with its data (its snapshot), while
// lookups against the current epochs treat them as stale.
func TestLookupAtSnapshot(t *testing.T) {
	s := NewStore(0, nil)
	old := s.SnapshotEpochs([]string{"tables/clicks"})
	s.Record("k", []string{"tables/clicks"}, old, []string{"out"}, 1)
	s.BumpPath("tables/clicks")
	if _, ok := s.LookupAt("k", old); !ok {
		t.Error("session holding pre-registration data lost its consistent artifact")
	}
	if _, ok := s.LookupAt("k", s.SnapshotEpochs([]string{"tables/clicks"})); ok {
		t.Error("post-registration snapshot served the pre-registration artifact")
	}
	if _, ok := s.Lookup("k"); ok {
		t.Error("current-epoch lookup served a stale artifact")
	}
}

// TestCrossSnapshotLookupKeepsCurrentArtifact: session A connected before
// a re-registration, session B after. A's miss on B's artifact is a plain
// miss — not an invalidation — and A's own pre-bump artifact must not
// displace B's, or the two sessions rerun the job in turns forever.
func TestCrossSnapshotLookupKeepsCurrentArtifact(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(0, reg)
	tables := []string{"tables/clicks"}
	a := s.SnapshotEpochs(tables)
	s.BumpPath("tables/clicks")
	b := s.SnapshotEpochs(tables)
	s.Record("k", tables, b, []string{"from-b"}, 1)

	if _, ok := s.LookupAt("k", a); ok {
		t.Fatal("pre-bump session served a post-bump artifact")
	}
	if s.Len() != 1 {
		t.Error("A's miss deleted B's valid artifact")
	}
	s.Record("k", tables, a, []string{"from-a"}, 1)
	e, ok := s.LookupAt("k", b)
	if !ok || e.Lines[0] != "from-b" {
		t.Errorf("A's record displaced B's current artifact: hit=%v entry=%+v", ok, e)
	}
	if got := reg.Value("ysmart_reuse_invalidations_total"); got != 0 {
		t.Errorf("invalidations counter = %v, want 0: nothing went stale", got)
	}
}

// TestStoreConcurrent hammers lookup/insert/evict/bump from many
// goroutines; run under -race this is the data-race proof for the shared
// server store.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore(500, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%13)
				switch i % 5 {
				case 0:
					ep := s.SnapshotEpochs([]string{"tables/t"})
					s.Record(key, []string{"tables/t"}, ep, []string{"line", "line2"}, float64(i))
				case 1:
					s.Lookup(key)
				case 2:
					s.LookupAt(key, map[string]int64{"tables/t": int64(i)})
				case 3:
					if i%50 == 3 {
						s.BumpPath("tables/t")
					} else {
						s.Keys()
					}
				case 4:
					if i%25 == 4 {
						s.Forget(key)
					} else {
						s.BytesStored()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.BytesStored() > 500 {
		t.Errorf("stored %d bytes over the cap after concurrent churn", s.BytesStored())
	}
}
