// Package reuse implements ReStore-style cross-query job reuse: a
// canonical fingerprint for operator subtrees and a materialized-output
// store that records each MapReduce job's result lines together with the
// stats and validity epochs needed to decide whether — and for how long —
// the artifact is worth serving instead of re-running the job.
//
// The fingerprint half of the package (this file) renders a plan subtree
// into a canonical S-expression: identifiers lower-cased and expressions
// re-lexed with the same token discipline as translator.NormalizeSQL, so
// two SQL spellings that tokenize identically always canonicalize — and
// therefore fingerprint — identically, while any structural difference
// (table, predicate, projection list, group/join keys, partition-key
// choice, sort keys, limit) changes the rendered text and hence the hash.
package reuse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
)

// CanonPlan renders a plan subtree in canonical form. The rendering is a
// pure function of query semantics: it contains no query names, job
// names, or DFS paths, so structurally identical sub-plans from different
// queries render identically and can share one materialized artifact.
func CanonPlan(n plan.Node) string {
	var sb strings.Builder
	canonNode(&sb, n)
	return sb.String()
}

func canonNode(sb *strings.Builder, n plan.Node) {
	switch x := n.(type) {
	case *plan.Scan:
		fmt.Fprintf(sb, "(scan %s as %s)", strings.ToLower(x.Table), strings.ToLower(x.Binding))
	case *plan.Filter:
		sb.WriteString("(filter ")
		sb.WriteString(CanonExpr(x.Cond))
		sb.WriteByte(' ')
		canonNode(sb, x.Child)
		sb.WriteByte(')')
	case *plan.Project:
		sb.WriteString("(project [")
		for i, e := range x.Exprs {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(sb, "%s as %s", CanonExpr(e), strings.ToLower(x.Schema().Cols[i].Name))
		}
		sb.WriteString("] ")
		canonNode(sb, x.Child)
		sb.WriteByte(')')
	case *plan.Rebind:
		fmt.Fprintf(sb, "(as %s ", strings.ToLower(x.Binding))
		canonNode(sb, x.Child)
		sb.WriteByte(')')
	case *plan.Join:
		fmt.Fprintf(sb, "(join %s keys=[", strings.ToLower(x.Type.String()))
		for i := range x.LeftKeys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(sb, "%d:%d", x.LeftKeys[i], x.RightKeys[i])
		}
		fmt.Fprintf(sb, "] residual=%s ", CanonExpr(x.Residual))
		canonNode(sb, x.Left)
		sb.WriteByte(' ')
		canonNode(sb, x.Right)
		sb.WriteByte(')')
	case *plan.Aggregate:
		sb.WriteString("(agg group=[")
		for i, g := range x.GroupBy {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(sb, "%s as %s", CanonExpr(g), strings.ToLower(x.GroupNames[i]))
		}
		sb.WriteString("] aggs=[")
		for i, spec := range x.Aggs {
			if i > 0 {
				sb.WriteByte(' ')
			}
			arg := "*"
			if spec.Arg != nil {
				arg = CanonExpr(spec.Arg)
			}
			fmt.Fprintf(sb, "%v(%s) as %s", spec.Kind, arg, strings.ToLower(spec.Name))
		}
		// The partition-key choice decides how the reduce phase groups
		// rows, which the output bytes of a merged job can observe — two
		// aggregates differing only in PKChoice must not share artifacts.
		fmt.Fprintf(sb, "] pk=%v ", x.PKChoice)
		canonNode(sb, x.Child)
		sb.WriteByte(')')
	case *plan.Sort:
		sb.WriteString("(sort [")
		for i, k := range x.Keys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(CanonExpr(k.Expr))
			if k.Desc {
				sb.WriteString(" desc")
			}
		}
		sb.WriteString("] ")
		canonNode(sb, x.Child)
		sb.WriteByte(')')
	case *plan.Limit:
		fmt.Fprintf(sb, "(limit %d ", x.N)
		canonNode(sb, x.Child)
		sb.WriteByte(')')
	default:
		// Unknown operators fall back to their EXPLAIN description; this
		// only widens the descriptor (never aliases two different plans to
		// one rendering) as long as Describe covers the node's semantics.
		fmt.Fprintf(sb, "(opaque %s", n.Describe())
		for _, c := range n.Children() {
			sb.WriteByte(' ')
			canonNode(sb, c)
		}
		sb.WriteByte(')')
	}
}

// CanonExpr renders an expression canonically by re-lexing its SQL text
// and rendering the tokens with sqlparser.Canonical, as NormalizeSQL does:
// identifiers lower-cased, strings re-quoted, keywords upper-cased by the
// lexer, != folded to <>, whitespace collapsed. nil (no expression)
// renders as "-".
func CanonExpr(e sqlparser.Expr) string {
	if e == nil {
		return "-"
	}
	// Expression text produced by the planner always re-lexes; the raw
	// text is a safe (over-discriminating) fallback.
	src := e.SQL()
	toks, err := sqlparser.Tokenize(src)
	if err != nil {
		return src
	}
	if canon, err := sqlparser.Canonical(toks); err == nil {
		return canon
	}
	return src
}

// Fingerprint hashes a canonical descriptor to a short stable hex string.
// 128 bits of SHA-256 keep accidental collisions out of reach while the
// string stays usable as a DFS path component.
func Fingerprint(canonical string) string {
	h := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(h[:16])
}
