package main

import (
	"fmt"

	"ysmart/internal/datagen"
	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/plan"
	"ysmart/internal/queries"
	"ysmart/internal/server"
	"ysmart/internal/sqlparser"
)

// digest summarises a result set independently of row order: the row count
// and the wrapping sum of a 64-bit hash of every row's text cells. Equal
// multisets of rows give equal digests; it is cheap enough to compute for
// every op between timed calls, so every op is checked against the oracle
// without keeping its rows.
type digest struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashCell folds one text cell (nil = NULL) into a row hash. The 0xff / 0xfe
// markers keep ("ab","c") apart from ("a","bc") and NULL apart from "NULL".
func hashCell(h uint64, cell *string) uint64 {
	if cell == nil {
		return (h ^ 0xfe) * fnvPrime
	}
	s := *cell
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

// mix is a finalizer (splitmix64) so that the sum of row hashes does not
// cancel on structured inputs.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// digestWire digests a result as the wire client received it.
func digestWire(rows [][]*string) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, c := range row {
			h = hashCell(h, c)
		}
		d.sum += mix(h)
	}
	return d
}

// digestRows digests rows as the server would send them: every non-NULL
// value rendered with server.TextValue, the exact DataRow cell bytes.
func digestRows(rows []exec.Row) digest {
	d := digest{rows: len(rows)}
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, v := range row {
			if v.IsNull() {
				h = hashCell(h, nil)
				continue
			}
			s := server.TextValue(v)
			h = hashCell(h, &s)
		}
		d.sum += mix(h)
	}
	return d
}

// oracle answers statements with the single-node DBMS executor over the
// same generated tables the server was given — an implementation that
// shares no execution code with the MapReduce path under test.
type oracle struct {
	cat plan.MapCatalog
	dbs []*dbms.Database // one per orders+lineitem dataset version
}

func newOracle(versions []datagen.Tables) *oracle {
	o := &oracle{cat: queries.Catalog()}
	for _, tables := range versions {
		db := dbms.NewDatabase()
		for name, rows := range tables {
			schema, _ := o.cat.Table(name)
			db.Load(name, schema, rows)
		}
		o.dbs = append(o.dbs, db)
	}
	return o
}

// digestOf executes sql on the oracle at a dataset version.
func (o *oracle) digestOf(sql string, version int) (digest, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return digest{}, fmt.Errorf("oracle parse: %w", err)
	}
	root, err := plan.Build(stmt, o.cat)
	if err != nil {
		return digest{}, fmt.Errorf("oracle plan: %w", err)
	}
	res, err := dbms.Execute(root, o.dbs[version])
	if err != nil {
		return digest{}, fmt.Errorf("oracle execute: %w", err)
	}
	return digestRows(res.Rows), nil
}

// expected holds the pre-computed oracle digest of every distinct
// (statement, dataset version) of a workload.
type expected [][]digest // stmt -> version -> digest

func (o *oracle) expectedFor(s *spec) (expected, error) {
	exp := make(expected, len(s.stmts))
	for si, sql := range s.stmts {
		for v := range o.dbs {
			d, err := o.digestOf(sql, v)
			if err != nil {
				return nil, fmt.Errorf("statement %d: %w", si, err)
			}
			exp[si] = append(exp[si], d)
		}
	}
	return exp, nil
}
