// Package relational is the "RDBMS + Web interface" baseline of the
// paper's Fig. 8: a miniature relational engine with fixed-schema
// tables and a row-per-page generator. It exists to demonstrate the
// costs the paper attributes to traditional models for this workload:
// modeling irregular semistructured data in fixed relations requires
// a maximal schema padded with NULLs, multi-valued attributes need
// junction tables, and schema evolution means migrations. The package
// quantifies those costs (NULL density, lost values) so the Fig. 8
// experiment can report them.
package relational

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"strudel/internal/graph"
)

// Null is the relational NULL marker; the zero graph.Value serves.
var Null = graph.Value{}

// Row is one tuple.
type Row []graph.Value

// Table is a fixed-schema relation.
type Table struct {
	Name string
	Cols []string
	Rows []Row
	col  map[string]int
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...string) *Table {
	t := &Table{Name: name, Cols: cols, col: map[string]int{}}
	for i, c := range cols {
		t.col[c] = i
	}
	return t
}

// Insert appends a row; its length must match the schema.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("relational: table %s has %d columns, row has %d", t.Name, len(t.Cols), len(r))
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// Get returns a named column of a row.
func (t *Table) Get(r Row, colName string) graph.Value {
	if i, ok := t.col[colName]; ok {
		return r[i]
	}
	return Null
}

// NullCount counts NULL cells — the padding cost of forcing
// irregular objects into a maximal schema.
func (t *Table) NullCount() int {
	n := 0
	for _, r := range t.Rows {
		for _, v := range r {
			if v.IsZero() {
				n++
			}
		}
	}
	return n
}

// NullDensity is the fraction of cells that are NULL.
func (t *Table) NullDensity() float64 {
	cells := len(t.Rows) * len(t.Cols)
	if cells == 0 {
		return 0
	}
	return float64(t.NullCount()) / float64(cells)
}

// Select returns the rows satisfying pred.
func (t *Table) Select(pred func(Row) bool) *Table {
	out := NewTable(t.Name+"'", t.Cols...)
	for _, r := range t.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Project returns a table with only the named columns.
func (t *Table) Project(cols ...string) (*Table, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.col[c]
		if !ok {
			return nil, fmt.Errorf("relational: table %s has no column %q", t.Name, c)
		}
		idx[i] = j
	}
	out := NewTable(t.Name+"'", cols...)
	for _, r := range t.Rows {
		nr := make(Row, len(cols))
		for i, j := range idx {
			nr[i] = r[j]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// OrderBy sorts rows by a column ascending.
func (t *Table) OrderBy(col string) *Table {
	i, ok := t.col[col]
	if !ok {
		return t
	}
	out := NewTable(t.Name, t.Cols...)
	out.Rows = append(out.Rows, t.Rows...)
	sort.SliceStable(out.Rows, func(a, b int) bool {
		cmp, ok := graph.Compare(out.Rows[a][i], out.Rows[b][i])
		if !ok {
			return graph.Less(out.Rows[a][i], out.Rows[b][i])
		}
		return cmp < 0
	})
	return out
}

// HashJoin joins two tables on equality of the named columns.
func HashJoin(left *Table, lcol string, right *Table, rcol string) (*Table, error) {
	li, ok := left.col[lcol]
	if !ok {
		return nil, fmt.Errorf("relational: %s has no column %q", left.Name, lcol)
	}
	ri, ok := right.col[rcol]
	if !ok {
		return nil, fmt.Errorf("relational: %s has no column %q", right.Name, rcol)
	}
	cols := make([]string, 0, len(left.Cols)+len(right.Cols))
	for _, c := range left.Cols {
		cols = append(cols, left.Name+"."+c)
	}
	for _, c := range right.Cols {
		cols = append(cols, right.Name+"."+c)
	}
	out := NewTable(left.Name+"⋈"+right.Name, cols...)
	index := map[graph.Value][]Row{}
	for _, r := range right.Rows {
		index[r[ri]] = append(index[r[ri]], r)
	}
	for _, l := range left.Rows {
		for _, r := range index[l[li]] {
			nr := make(Row, 0, len(cols))
			nr = append(nr, l...)
			nr = append(nr, r...)
			out.Rows = append(out.Rows, nr)
		}
	}
	return out, nil
}

// DB is a set of tables.
type DB struct {
	Tables map[string]*Table
	// LostValues counts attribute values dropped during loading
	// because a scalar column can hold only one value and no junction
	// table was declared for the attribute.
	LostValues int
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{Tables: map[string]*Table{}} }

// LoadCollection maps a graph collection into a fixed-schema table
// using the maximal-schema approach: one column per attribute in
// attrs (plus "id"); missing attributes become NULL; extra values of
// scalar attributes are lost unless the attribute appears in
// junctions, in which case a two-column junction table is created.
func (db *DB) LoadCollection(g *graph.Graph, coll string, attrs []string, junctions []string) (*Table, error) {
	isJunction := map[string]bool{}
	jt := map[string]*Table{}
	for _, j := range junctions {
		isJunction[j] = true
		t := NewTable(coll+"_"+j, "id", j)
		jt[j] = t
		db.Tables[t.Name] = t
	}
	// Junction attributes live only in their junction tables; scalar
	// columns are the remaining attrs.
	var scalarCols []string
	for _, a := range attrs {
		if !isJunction[a] {
			scalarCols = append(scalarCols, a)
		}
	}
	cols := append([]string{"id"}, scalarCols...)
	table := NewTable(coll, cols...)
	db.Tables[coll] = table
	for _, m := range g.Collection(coll) {
		if !m.IsNode() {
			continue
		}
		id := graph.Str(g.DisplayName(m.OID()))
		row := make(Row, len(cols))
		row[0] = id
		for i, attr := range scalarCols {
			vals := g.OutLabel(m.OID(), attr)
			switch len(vals) {
			case 0:
				row[i+1] = Null
			default:
				row[i+1] = vals[0]
				db.LostValues += len(vals) - 1
			}
		}
		for _, j := range junctions {
			for _, v := range g.OutLabel(m.OID(), j) {
				if err := jt[j].Insert(Row{id, v}); err != nil {
					return nil, err
				}
			}
		}
		// Attributes outside the declared schema are lost entirely.
		for _, e := range g.Out(m.OID()) {
			if !contains(attrs, e.Label) && !isJunction[e.Label] {
				db.LostValues++
			}
		}
		if err := table.Insert(row); err != nil {
			return nil, err
		}
	}
	return table, nil
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// MaximalSchema computes the union of attribute names over a
// collection — what a fixed relational schema for it must contain.
func MaximalSchema(g *graph.Graph, coll string) []string {
	set := map[string]bool{}
	for _, m := range g.Collection(coll) {
		if !m.IsNode() {
			continue
		}
		for _, e := range g.Out(m.OID()) {
			set[e.Label] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// PageSpec renders one page per row of a table: the "Web interface to
// a database" pattern.
type PageSpec struct {
	Table    *Table
	PathCol  string // column providing the file name
	Title    string
	BodyCols []string
}

// GeneratePages renders the pages of a spec.
func (s PageSpec) GeneratePages() map[string]string {
	pages := map[string]string{}
	for _, r := range s.Table.Rows {
		var sb strings.Builder
		fmt.Fprintf(&sb, "<html><body><h1>%s</h1>\n<table>\n", html.EscapeString(s.Title))
		for _, c := range s.BodyCols {
			v := s.Table.Get(r, c)
			cell := "NULL"
			if !v.IsZero() {
				cell = html.EscapeString(v.Text())
			}
			fmt.Fprintf(&sb, "<tr><td>%s</td><td>%s</td></tr>\n", html.EscapeString(c), cell)
		}
		sb.WriteString("</table>\n</body></html>")
		pages[sanitize(s.Table.Get(r, s.PathCol).Text())+".html"] = sb.String()
	}
	return pages
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, s)
}
