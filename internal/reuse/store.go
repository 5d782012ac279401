package reuse

import (
	"sort"
	"sync"

	"ysmart/internal/obs"
)

// Entry is one materialized job output. Everything except the hit counter
// is immutable after Record: lookups hand the entry out by pointer, and
// readers on other goroutines consume Lines/Bytes/PredictedSeconds
// without holding the store lock.
type Entry struct {
	// Key is the store key: the job fingerprint, prefixed with the
	// optimizer dimension (translator.ArtifactKey) so MANIMAL-rewritten
	// and plain artifacts never mix.
	Key string
	// Fingerprint is the canonical sub-plan fingerprint.
	Fingerprint string
	// Tables lists the DFS paths of every base table the artifact was
	// derived from, sorted.
	Tables []string
	// Epochs records the validity epoch of each table path at the time
	// the artifact was produced: a session's snapshot of the store's
	// epochs, or the tables' content digests. The entry is served only
	// while the lookup's reference epochs still match.
	Epochs map[string]int64
	// Lines is the materialized job output, byte-for-byte.
	Lines []string
	// Bytes is the encoded size of Lines (line bytes + newline each).
	Bytes int64
	// Rows is len(Lines) at record time.
	Rows int64
	// PredictedSeconds is the cost model's prediction for the producing
	// job (JobStats.PredictedTime) — the time a future query saves by
	// reading the artifact instead of re-running the job.
	PredictedSeconds float64
	// Hits counts how many lookups served this entry.
	Hits int64
	// seq is the insertion sequence number, the deterministic tie-break
	// for eviction.
	seq int64
}

// Store is the materialized-output store: a bounded, epoch-validated map
// from sub-plan fingerprints to job output lines. It is safe for
// concurrent use by many sessions. The zero value is not usable; call
// NewStore.
type Store struct {
	mu       sync.Mutex
	entries  map[string]*Entry
	epochs   map[string]int64 // current validity epoch per input path
	bytes    int64
	capBytes int64
	seq      int64
	reg      *obs.Registry
}

// NewStore returns an empty store. capBytes bounds the total stored
// artifact bytes (0 = unbounded); reg, when non-nil, receives the
// ysmart_reuse_* metric families.
func NewStore(capBytes int64, reg *obs.Registry) *Store {
	return &Store{
		entries:  make(map[string]*Entry),
		epochs:   make(map[string]int64),
		capBytes: capBytes,
		reg:      reg,
	}
}

// gaugesLocked refreshes the size gauges; callers hold s.mu.
func (s *Store) gaugesLocked() {
	s.reg.Set("ysmart_reuse_entries", float64(len(s.entries)))
	s.reg.Set("ysmart_reuse_store_bytes", float64(s.bytes))
}

// Lookup returns the entry for key if one exists and is still valid
// against the store's current epochs. Stale entries are dropped (counted
// as an invalidation and a miss).
func (s *Store) Lookup(key string) (*Entry, bool) {
	return s.lookup(key, nil)
}

// LookupAt is Lookup validated against a caller-captured epoch snapshot
// instead of the store's current epochs. A server session that copied its
// input tables at connect time passes the snapshot it took then, so it
// only ever reuses artifacts consistent with the data it is actually
// serving — never artifacts produced from a later re-registration. An
// entry that mismatches the snapshot but is valid at the current epochs
// belongs to sessions connected since: it is a plain miss and stays.
func (s *Store) LookupAt(key string, epochs map[string]int64) (*Entry, bool) {
	return s.lookup(key, epochs)
}

func (s *Store) lookup(key string, at map[string]int64) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok && !s.validLocked(e, at) {
		if at == nil || !s.validLocked(e, nil) {
			delete(s.entries, key)
			s.bytes -= e.Bytes
			s.reg.Add("ysmart_reuse_invalidations_total", 1)
			s.gaugesLocked()
		}
		ok = false
	}
	if !ok {
		s.reg.Add("ysmart_reuse_misses_total", 1)
		return nil, false
	}
	e.Hits++
	s.reg.Add("ysmart_reuse_hits_total", 1)
	s.reg.Add("ysmart_reuse_bytes_saved_total", float64(e.Bytes))
	s.reg.Add("ysmart_reuse_predicted_saved_seconds_total", e.PredictedSeconds)
	return e, true
}

// validLocked reports whether e's recorded epochs match the reference
// epochs (the caller snapshot, or the store's current epochs when at is
// nil); callers hold s.mu.
func (s *Store) validLocked(e *Entry, at map[string]int64) bool {
	for _, path := range e.Tables {
		cur, ok := at[path]
		if at == nil || !ok {
			cur = s.epochs[path]
		}
		if e.Epochs[path] != cur {
			return false
		}
	}
	return true
}

// Record stores the output lines of a job run under key. epochs is the
// validity snapshot of the tables the job read, captured when the plan
// was rewritten (before execution) so a concurrent table overwrite can
// only make the entry look stale, never fresh. Existing entries are
// replaced but keep their hit history — except that an entry valid at the
// current epochs is never displaced by an artifact that is not (a session
// still serving pre-bump data must not cost newer sessions their reuse).
// Recording may evict other entries (or the new one) to respect the byte
// cap. The entry keeps lines itself, not a copy: like a DFS file's lines
// (the ownership rule on mapreduce.DFS, which is where recorded artifacts
// come from), they must never be written again.
func (s *Store) Record(key, fingerprint string, tables []string, epochs map[string]int64, lines []string, predictedSeconds float64) {
	var bytes int64
	for _, l := range lines {
		bytes += int64(len(l)) + 1
	}
	sortedTables := append([]string(nil), tables...)
	sort.Strings(sortedTables)
	ep := make(map[string]int64, len(sortedTables))
	for _, p := range sortedTables {
		ep[p] = epochs[p]
	}
	e := &Entry{
		Key:              key,
		Fingerprint:      fingerprint,
		Tables:           sortedTables,
		Epochs:           ep,
		Lines:            lines,
		Bytes:            bytes,
		Rows:             int64(len(lines)),
		PredictedSeconds: predictedSeconds,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		if s.validLocked(old, nil) && !s.validLocked(e, nil) {
			return
		}
		e.Hits = old.Hits
		s.bytes -= old.Bytes
	}
	s.seq++
	e.seq = s.seq
	s.entries[key] = e
	s.bytes += bytes
	s.reg.Add("ysmart_reuse_records_total", 1)
	s.evictLocked()
	s.gaugesLocked()
}

// evictLocked enforces the byte cap with the cost-model policy: each
// entry's retention score is the predicted seconds the cluster saves per
// stored byte, weighted by demonstrated demand —
// PredictedSeconds × (1 + Hits) / Bytes — and the lowest-scoring entry
// goes first. Ties break on insertion order (oldest first) so eviction is
// fully deterministic. Callers hold s.mu.
func (s *Store) evictLocked() {
	for s.capBytes > 0 && s.bytes > s.capBytes && len(s.entries) > 0 {
		var victim *Entry
		var victimScore float64
		for _, e := range s.entries {
			score := s.scoreLocked(e)
			if victim == nil || score < victimScore ||
				(score == victimScore && e.seq < victim.seq) {
				victim, victimScore = e, score
			}
		}
		delete(s.entries, victim.Key)
		s.bytes -= victim.Bytes
		s.reg.Add("ysmart_reuse_evictions_total", 1)
	}
}

// scoreLocked is the eviction retention score of e (higher = keep).
func (s *Store) scoreLocked(e *Entry) float64 {
	if e.Bytes <= 0 {
		return 0
	}
	return e.PredictedSeconds * float64(1+e.Hits) / float64(e.Bytes)
}

// SnapshotEpochs returns the current validity epoch of each given path.
// Paths that were never bumped report epoch 0.
func (s *Store) SnapshotEpochs(paths []string) map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(paths))
	for _, p := range paths {
		out[p] = s.epochs[p]
	}
	return out
}

// BumpPath advances the validity epoch of a DFS path. Every entry whose
// artifact was derived from the path becomes stale and will be dropped on
// its next lookup.
func (s *Store) BumpPath(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epochs[path]++
}

// Forget drops the entry for key if present. Tests use it to force
// partial reuse (everything but the forgotten sub-plan comes from the
// store).
func (s *Store) Forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		delete(s.entries, key)
		s.bytes -= e.Bytes
		s.gaugesLocked()
	}
}

// Keys returns the stored keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of stored entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// BytesStored reports the total artifact bytes currently held.
func (s *Store) BytesStored() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
