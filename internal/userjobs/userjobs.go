// Package userjobs contains deliberately naive hand-written MapReduce
// programs — the kind MANIMAL's authors observed in the wild: the mapper
// ships the whole decoded input row to the reducer, and selections that
// belong in the map phase (or before it) are evaluated in the reduce
// function. They are the subjects of the internal/optanalysis static
// analyzer, which infers early filters and live-column sets from their
// source and rewrites the jobs at run time; each program carries the SQL
// its output must stay byte-equivalent to, so tests can prove the
// rewrites change cost and nothing else.
//
// The programs stick to analyzable idioms on purpose: job names are
// string literals (the analyzer links source jobs to runtime jobs by
// name), rows decode through the package-level schema vars below, and
// map values are exec.EncodeRow of the unmodified decoded row.
package userjobs

import (
	"strconv"

	"ysmart/internal/exec"
	"ysmart/internal/handcoded"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
	"ysmart/internal/translator"
)

// Program is a runnable naive user program plus the SQL oracle its
// result rows must match.
type Program struct {
	// Program holds the executable jobs in dependency order, the DFS path
	// of the result and its row schema, and reads the result.
	handcoded.Program
	// OracleSQL is the equivalent SQL query, run against the DBMS oracle
	// to check the program (optimized or not) byte-for-byte.
	OracleSQL string
}

// All returns every naive program, freshly built.
func All() []*Program {
	return []*Program{AggNaive(), HighValueNaive(), LateShipNaive()}
}

func mustSchema(table string) *exec.Schema {
	s, ok := queries.Catalog().Table(table)
	if !ok {
		panic("userjobs: unknown table " + table)
	}
	return s
}

// Package-level schema vars: the analyzer resolves DecodeRow's schema
// argument through these to the catalog table named in the initializer.
var (
	clicksSchema   = mustSchema("clicks")
	ordersSchema   = mustSchema("orders")
	lineitemSchema = mustSchema("lineitem")
)

// AggNaive counts clicks per category, shipping the entire click row to
// the reducer even though the count reads none of it: every value column
// is dead, so projection trimming applies to all four.
func AggNaive() *Program {
	out := "tmp/agg-naive/result"
	job := &mapreduce.Job{
		Name: "agg-naive-j1",
		Inputs: []mapreduce.Input{{
			Path: translator.TablePath("clicks"),
			Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
				row, err := exec.DecodeRow(line, clicksSchema)
				if err != nil {
					return err
				}
				emit(strconv.FormatInt(row[2].I, 10), exec.EncodeRow(row))
				return nil
			}),
		}},
		Reducer: mapreduce.ReducerFunc(func(key string, values []string, emit func(string)) error {
			emit(key + "\t" + strconv.FormatInt(int64(len(values)), 10))
			return nil
		}),
		Output: out,
	}
	return &Program{
		Program: handcoded.Program{
			Jobs:   []*mapreduce.Job{job},
			Output: out,
			OutputSchema: exec.NewSchema(
				exec.Column{Name: "cid", Type: exec.TypeInt},
				exec.Column{Name: "click_count", Type: exec.TypeInt},
			),
		},
		OracleSQL: "SELECT cid, count(*) AS click_count FROM clicks GROUP BY cid",
	}
}

// HighValueNaive lists the customer and price of every high-value order,
// but evaluates the price selection in the reducer: the analyzer pushes
// the guard down to the map output (dropping the pairs the reducer would
// skip) and trims every column the reducer never reads.
func HighValueNaive() *Program {
	out := "tmp/highvalue-naive/result"
	job := &mapreduce.Job{
		Name: "highvalue-naive-j1",
		Inputs: []mapreduce.Input{{
			Path: translator.TablePath("orders"),
			Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
				row, err := exec.DecodeRow(line, ordersSchema)
				if err != nil {
					return err
				}
				emit(strconv.FormatInt(row[1].I, 10), exec.EncodeRow(row))
				return nil
			}),
		}},
		Reducer: mapreduce.ReducerFunc(func(key string, values []string, emit func(string)) error {
			for _, v := range values {
				vrow, err := exec.DecodeRow(v, ordersSchema)
				if err != nil {
					return err
				}
				if vrow[3].F <= 30000 {
					continue
				}
				emit(key + "\t" + exec.EncodeField(vrow[3]))
			}
			return nil
		}),
		Output: out,
	}
	return &Program{
		Program: handcoded.Program{
			Jobs:   []*mapreduce.Job{job},
			Output: out,
			OutputSchema: exec.NewSchema(
				exec.Column{Name: "o_custkey", Type: exec.TypeInt},
				exec.Column{Name: "o_totalprice", Type: exec.TypeFloat},
			),
		},
		OracleSQL: "SELECT o_custkey, o_totalprice FROM orders WHERE o_totalprice > 30000",
	}
}

// LateShipNaive counts recently shipped lineitems per ship mode. The
// mapper's date guard — reached through the shippedRecently helper — is
// a selection on a decoded field against a constant, so the analyzer
// hoists it into an early filter on the scan; the reducer reads no
// value columns, so all eleven trim away.
func LateShipNaive() *Program {
	out := "tmp/lateship-naive/result"
	job := &mapreduce.Job{
		Name: "lateship-naive-j1",
		Inputs: []mapreduce.Input{{
			Path: translator.TablePath("lineitem"),
			Mapper: mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
				row, err := exec.DecodeRow(line, lineitemSchema)
				if err != nil {
					return err
				}
				if !shippedRecently(row) {
					return nil
				}
				emit(row[9].S, exec.EncodeRow(row))
				return nil
			}),
		}},
		Reducer: mapreduce.ReducerFunc(func(key string, values []string, emit func(string)) error {
			emit(key + "\t" + strconv.FormatInt(int64(len(values)), 10))
			return nil
		}),
		Output: out,
	}
	return &Program{
		Program: handcoded.Program{
			Jobs:   []*mapreduce.Job{job},
			Output: out,
			OutputSchema: exec.NewSchema(
				exec.Column{Name: "l_shipmode", Type: exec.TypeString},
				exec.Column{Name: "ship_count", Type: exec.TypeInt},
			),
		},
		OracleSQL: "SELECT l_shipmode, count(*) AS ship_count FROM lineitem WHERE l_shipdate >= 9300 GROUP BY l_shipmode",
	}
}

// shippedRecently keeps lineitems shipped inside the survey window.
func shippedRecently(row exec.Row) bool { return row[7].I >= 9300 }
