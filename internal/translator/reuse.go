package translator

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ysmart/internal/correlation"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/reuse"
)

// JobArtifact identifies one job's output for the cross-query reuse
// store: the canonical fingerprint of the sub-plan the job computes and
// the base-table DFS paths the output was derived from. It deliberately
// contains no query names, job names or tmp paths, so structurally
// identical jobs generated for different queries fingerprint identically
// and can share a materialized artifact.
type JobArtifact struct {
	Fingerprint string
	// Tables are the DFS paths (TablePath) of every base table the job's
	// output transitively depends on, sorted.
	Tables []string
}

// ArtifactKey scopes a fingerprint by the optimizer dimension, following
// the CacheKeyOpt discipline: MANIMAL-rewritten translations must never
// share artifacts with plain translations of the same sub-plan.
func ArtifactKey(fingerprint string, optimized bool) string {
	if optimized {
		return "manimal\x00" + fingerprint
	}
	return fingerprint
}

// ArtifactPath is the DFS path a reused artifact is installed under
// before the rewritten chain runs (a NUL-free rendering of ArtifactKey).
func ArtifactPath(fingerprint string, optimized bool) string {
	if optimized {
		return "restore/manimal-" + fingerprint
	}
	return "restore/" + fingerprint
}

// fingerprint is what a translation's artifacts are hashed from, kept from
// lowering so that only a translation looked up in a reuse store pays for
// the hashing: the operations lowered into each job (parallel to Jobs; none
// for the map-only job of a selection-projection query), the LIMIT folded
// into the root sort, and the lowering toggles that change generated job
// bytes. The rest — mode, analysis, output tags, job dependencies — the
// translation carries anyway.
type fingerprint struct {
	jobOps                [][]*correlation.Operation
	topLimit              int
	prune, combine, share bool

	once      sync.Once
	artifacts []JobArtifact
}

// fingerprint keeps the lowering's fingerprint inputs for the translation.
func (lw *lowerer) fingerprint(jobOps [][]*correlation.Operation) *fingerprint {
	return &fingerprint{jobOps: jobOps, topLimit: lw.topLimit, prune: lw.prune, combine: lw.combine, share: lw.share}
}

// Artifacts describes each job's output for the cross-query reuse store,
// parallel to Jobs: a canonical fingerprint of the sub-plan the job computes
// plus the base-table DFS paths the output depends on. The first call
// computes them, once per translation; every caller then shares the one
// slice, so read it, never write it. A translation built by hand, not by
// Translate, has none.
func (t *Translation) Artifacts() []JobArtifact {
	fp := t.fp
	if fp == nil {
		return nil
	}
	fp.once.Do(func() { fp.artifacts = fp.compute(t) })
	return fp.artifacts
}

// compute fingerprints every job of t. A job hashes the canonical rendering
// of every operation it executes (with the pruned column demand that shapes
// its written rows), its output tags, and — Merkle-style — the fingerprints
// of the jobs it reads intermediate results from, so an artifact is only
// ever reused when its whole upstream computation matches. The job that
// produces the query result hashes the full plan root instead, covering the
// top chain and LIMIT; so does the single map-only job of a pure
// selection-projection query.
func (fp *fingerprint) compute(t *Translation) []JobArtifact {
	a := t.Analysis
	header := fmt.Sprintf("v1;mode=%s;prune=%t;combine=%t;share=%t\n", t.Mode, fp.prune, fp.combine, fp.share)
	rootLine := func(sb *strings.Builder) {
		fmt.Fprintf(sb, "root;limit=%d;%s\n", fp.topLimit, reuse.CanonPlan(a.Root()))
	}
	if a.RootOp == nil {
		var sb strings.Builder
		sb.WriteString(header)
		rootLine(&sb)
		return []JobArtifact{{Fingerprint: reuse.Fingerprint(sb.String()), Tables: tablePathsOf(plan.BaseTables(a.Root()))}}
	}
	index := make(map[*mapreduce.Job]int, len(t.Jobs))
	arts := make([]JobArtifact, len(t.Jobs))
	for i, j := range t.Jobs {
		index[j] = i
		var sb strings.Builder
		sb.WriteString(header)
		tables := make(map[string]bool)
		for _, op := range fp.jobOps[i] {
			n := op.Node()
			if op == a.RootOp {
				rootLine(&sb)
				n = a.Root()
			} else {
				fmt.Fprintf(&sb, "op;req=%v;%s\n", requiredCols(a, fp.prune, n), reuse.CanonPlan(n))
			}
			for tb := range plan.BaseTables(n) {
				tables[tb] = true
			}
		}
		for _, out := range t.CommonJobs[i].Outputs {
			fmt.Fprintf(&sb, "out;%s\n", out.Tag)
		}
		// Lowering wires DependsOn in the order the jobs are read from, and
		// a job's dependencies precede it in Jobs.
		for _, d := range j.DependsOn {
			fmt.Fprintf(&sb, "dep;%s\n", arts[index[d]].Fingerprint)
		}
		arts[i] = JobArtifact{Fingerprint: reuse.Fingerprint(sb.String()), Tables: tablePathsOf(tables)}
	}
	return arts
}

// tablePathsOf converts a base-table set to sorted DFS paths.
func tablePathsOf(tables map[string]bool) []string {
	out := make([]string, 0, len(tables))
	for t := range tables {
		out = append(out, TablePath(t))
	}
	sort.Strings(out)
	return out
}

// reuseRecord remembers what to materialize after an executed job's run.
type reuseRecord struct {
	jobName     string
	key         string
	fingerprint string
	tables      []string
	outPath     string
}

// ReusePlan is a translation rewritten against the materialized-output
// store: the jobs that still need to run (clones — the source Translation
// is never mutated, because a cached plan is shared by every session running
// it), with inputs that matched a stored artifact repointed at restore/
// paths. Run (run.go) executes rp.Jobs, opens the result file at rp.Output,
// then calls rp.Record to materialize the outputs of the jobs that did
// execute.
type ReusePlan struct {
	// Jobs is the rewritten chain (possibly empty when the whole query
	// came from the store; RunChain of an empty chain is a no-op).
	Jobs []*mapreduce.Job
	// Output/OutputTag/OutputSchema locate and type the result rows —
	// Output points into restore/ when the final job was skipped.
	Output       string
	OutputTag    string
	OutputSchema *exec.Schema
	// Hits and Misses count store lookups; Skipped of Total jobs were
	// dropped from the chain (reused or transitively unneeded).
	Hits    int
	Misses  int
	Skipped int
	Total   int
	// ArtifactBytes totals the stored bytes served in place of skipped
	// jobs; PredictedSavedSeconds totals their cost-model runtime.
	ArtifactBytes         int64
	PredictedSavedSeconds float64

	records  []reuseRecord
	epochs   map[string]int64
	digested bool // epochs are the tables' content digests
}

// ApplyReuseAt rewrites tr against the store at a caller-captured epoch
// snapshot: a server session's, taken at connect. Without one (nil) each
// base table is versioned by its DFS.Digest in dfs (0 if absent), so an
// artifact is served only for the bytes it was computed from, whichever
// runtime computed it. The snapshot is taken before lookup and kept for
// Record, so a table overwrite racing the run can only make artifacts look
// stale (Record takes digests again after the run). A job is
// dropped from the chain when its own artifact is valid in the store, or
// when every chain consumer of its output was dropped; surviving jobs are
// cloned with their intermediate inputs repointed at the installed
// restore/ paths (installed into dfs here by reference — the store keeps
// the slice the producing job wrote, which nobody writes again under the
// DFS ownership rule, so every query an artifact serves shares the one
// slice) and their DependsOn edges rebuilt among the clones. With a nil
// store the rewrite is the identity: tr's own jobs, to be run as compiled.
func ApplyReuseAt(tr *Translation, store *reuse.Store, dfs *mapreduce.DFS, epochs map[string]int64) *ReusePlan {
	rp := &ReusePlan{Output: tr.Output, OutputTag: tr.OutputTag, OutputSchema: tr.OutputSchema, Total: len(tr.Jobs)}
	if store == nil || len(tr.Jobs) == 0 || len(tr.Artifacts()) != len(tr.Jobs) {
		rp.Jobs = tr.Jobs
		return rp
	}
	arts := tr.Artifacts()
	if epochs == nil {
		epochs = make(map[string]int64)
		for _, a := range arts {
			for _, t := range a.Tables {
				if _, ok := epochs[t]; !ok {
					epochs[t], _ = dfs.Digest(t)
				}
			}
		}
		rp.digested = true
	}
	rp.epochs = epochs

	n := len(tr.Jobs)
	keys := make([]string, n)
	hit := make([]*reuse.Entry, n)
	for i, a := range arts {
		keys[i] = ArtifactKey(a.Fingerprint, tr.Optimized)
		if e, ok := store.LookupAt(keys[i], epochs); ok {
			hit[i] = e
			rp.Hits++
		} else {
			rp.Misses++
		}
	}

	producer := make(map[string]int, n)
	for i, j := range tr.Jobs {
		producer[j.Output] = i
	}
	rootIdx, ok := producer[tr.Output]
	if !ok {
		rp.Jobs = tr.Jobs
		return rp
	}

	// Walk the demand closure down from the result-producing job: a miss
	// must run (needed), a hit feeding a needed job must be installed
	// (used), and everything upstream of a hit disappears entirely.
	needed := make([]bool, n)
	used := make([]bool, n)
	var need func(int)
	need = func(i int) {
		if needed[i] {
			return
		}
		needed[i] = true
		for _, in := range tr.Jobs[i].Inputs {
			pi, ok := producer[in.Path]
			if !ok {
				continue
			}
			if hit[pi] != nil {
				used[pi] = true
			} else {
				need(pi)
			}
		}
	}
	if hit[rootIdx] != nil {
		used[rootIdx] = true
	} else {
		need(rootIdx)
	}

	for i := 0; i < n; i++ {
		if used[i] {
			dfs.WriteShared(ArtifactPath(arts[i].Fingerprint, tr.Optimized), hit[i].Lines)
		}
		if !needed[i] && hit[i] != nil {
			rp.ArtifactBytes += hit[i].Bytes
			rp.PredictedSavedSeconds += hit[i].PredictedSeconds
		}
	}

	// Clone surviving jobs. Shallow copies share mappers and reducers with
	// tr, which nothing writes once they are built (a reducer hands every
	// reduce task an instance of its own).
	cloneOf := make(map[*mapreduce.Job]*mapreduce.Job, n)
	for i, j := range tr.Jobs {
		if !needed[i] {
			continue
		}
		cp := *j
		cp.Inputs = append([]mapreduce.Input(nil), j.Inputs...)
		for k := range cp.Inputs {
			if pi, ok := producer[cp.Inputs[k].Path]; ok && hit[pi] != nil {
				cp.Inputs[k].Path = ArtifactPath(arts[pi].Fingerprint, tr.Optimized)
			}
		}
		cp.DependsOn = nil
		for _, d := range j.DependsOn {
			if dc, ok := cloneOf[d]; ok {
				cp.DependsOn = append(cp.DependsOn, dc)
			}
		}
		cloneOf[j] = &cp
		rp.Jobs = append(rp.Jobs, &cp)
		rp.records = append(rp.records, reuseRecord{
			jobName:     j.Name,
			key:         keys[i],
			fingerprint: arts[i].Fingerprint,
			tables:      arts[i].Tables,
			outPath:     j.Output,
		})
	}
	rp.Skipped = rp.Total - len(rp.Jobs)
	if hit[rootIdx] != nil {
		rp.Output = ArtifactPath(arts[rootIdx].Fingerprint, tr.Optimized)
	}
	return rp
}

// RootArtifactKey returns the store key of the job that produces the
// query result, so callers can evict exactly the final artifact (the
// partial-reuse scenario of the differential harness). ok is false when
// the translation carries no artifacts.
func RootArtifactKey(tr *Translation) (key string, ok bool) {
	arts := tr.Artifacts()
	if len(arts) != len(tr.Jobs) {
		return "", false
	}
	for i, j := range tr.Jobs {
		if j.Output == tr.Output {
			return ArtifactKey(arts[i].Fingerprint, tr.Optimized), true
		}
	}
	return "", false
}

// ReadResult decodes the query result rows from the DFS — the rewritten
// chain's analogue of Translation.ReadResult.
func (rp *ReusePlan) ReadResult(dfs *mapreduce.DFS) ([]exec.Row, error) {
	return readResult(dfs, rp.Output, rp.OutputTag, rp.OutputSchema)
}

// Record materializes the outputs of the jobs that executed into the
// store, under the epoch snapshot captured at rewrite time and with each
// job's cost-model PredictedTime as the rebuild cost the store's eviction
// policy weighs against storage. Under content digests it records nothing
// if a table changed since they were taken: the outputs may have been
// computed from either content.
func (rp *ReusePlan) Record(store *reuse.Store, dfs *mapreduce.DFS, stats *mapreduce.ChainStats) {
	if store == nil {
		return
	}
	if rp.digested {
		for t, d := range rp.epochs {
			if now, _ := dfs.Digest(t); now != d {
				return
			}
		}
	}
	predicted := make(map[string]float64)
	if stats != nil {
		for _, js := range stats.Jobs {
			predicted[js.Name] = js.PredictedTime
		}
	}
	for _, rec := range rp.records {
		lines, err := dfs.Read(rec.outPath)
		if err != nil {
			continue
		}
		store.Record(rec.key, rec.fingerprint, rec.tables, rp.epochs, lines, predicted[rec.jobName])
	}
}

// Summary renders a one-line reuse report for CLI output.
func (rp *ReusePlan) Summary() string {
	return fmt.Sprintf("reuse: %d/%d job(s) skipped (store hits %d, misses %d), %s of artifacts read, predicted %.1fs saved",
		rp.Skipped, rp.Total, rp.Hits, rp.Misses, obs.FormatBytes(rp.ArtifactBytes), rp.PredictedSavedSeconds)
}
