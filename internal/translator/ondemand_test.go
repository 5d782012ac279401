package translator_test

import (
	"testing"

	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/reuse"
	"ysmart/internal/server"
	"ysmart/internal/translator"
)

// TestArtifactsOnDemandPlanCache: a server without a reuse store never
// fingerprints a job. Its plan cache translates each statement on a miss and
// hands it out on hits, and its runs apply reuse with a nil store; none of
// that computes artifacts. The first lookup in a store does.
func TestArtifactsOnDemandPlanCache(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		c := server.NewPlanCache(16, translator.YSmart, queries.Catalog(), nil)
		c.SetOptimize(optimize)
		dfs := mapreduce.NewDFS()
		for name, sql := range queries.Named() {
			for range 2 { // a miss, then a hit
				p, err := c.Get(sql)
				if err != nil {
					t.Fatal(err)
				}
				if rp := translator.ApplyReuseAt(p.Translation, nil, dfs, nil); len(rp.Jobs) != len(p.Translation.Jobs) {
					t.Fatalf("%s: a nil store rewrote the chain", name)
				}
				if translator.ArtifactsComputed(p.Translation) {
					t.Fatalf("%s (optimize %v, hit %v): artifacts computed without a reuse store", name, optimize, p.Hit)
				}
			}
			p, _ := c.Get(sql)
			translator.ApplyReuseAt(p.Translation, reuse.NewStore(0, nil), dfs, nil)
			if !translator.ArtifactsComputed(p.Translation) {
				t.Errorf("%s: a reuse lookup left the artifacts uncomputed", name)
			}
		}
	}
}
