// Package shred implements the ShreX-style XML-to-relational mapping of the
// paper (Sections 4 and 5.2): relational schema creation from a DTD,
// document shredding into tuples (directly into a database or as a SQL
// INSERT script), and the XPath-to-SQL translation used to evaluate rule
// resources and queries over the shredded representation.
//
// Following the paper, every element type E of the schema maps to a table
//
//	E(id, pid, [attribute columns,] [v,] s)
//
// where id is the primary key (the node's universal identifier — unique
// across the whole database, not just the table), pid is a foreign key to
// the parent element's table, v holds the node's character data when the
// content model admits #PCDATA, and s stores the node's access permission
// ('+' or '-').
package shred

import (
	"fmt"
	"sort"
	"strings"

	"xmlac/internal/dtd"
)

// SignColumn is the name of the access-permission column.
const SignColumn = "s"

// TableInfo describes the relational table one element type maps to.
type TableInfo struct {
	// Element is the XML element type name.
	Element string
	// Table is the (sanitized) SQL table name.
	Table string
	// HasValue reports whether the table has a v column (#PCDATA content).
	HasValue bool
	// Attrs are the declared attribute names, in declaration order; each
	// maps to a column named "a_<name>".
	Attrs []string
	// ParentTables are the tables whose rows can be this table's parents.
	ParentTables []string
}

// Mapping is a complete XML-to-relational mapping for one schema.
type Mapping struct {
	Schema *dtd.Schema
	// ByElement maps element type name to its table info.
	ByElement map[string]*TableInfo
	// order preserves schema declaration order.
	order []string
	// owners routes universal identifiers to their owning table (built as
	// documents are shredded, maintained on insert/delete). Nil for
	// hand-constructed mappings; every routing method degrades gracefully.
	owners *ownerIndex
}

// reservedSuffix disambiguates element names that collide with SQL keywords
// or with each other after sanitization.
const reservedSuffix = "_t"

// BuildMapping constructs the relational mapping for a schema.
func BuildMapping(schema *dtd.Schema) (*Mapping, error) {
	if rec, cyc := schema.IsRecursive(); rec {
		// The mapping itself would work for recursive schemas, but the
		// XPath-to-SQL translation would not terminate; the paper de-recursed
		// its schemas for the same reason.
		return nil, fmt.Errorf("shred: schema is recursive (cycle %v)", cyc)
	}
	m := &Mapping{Schema: schema, ByElement: map[string]*TableInfo{}, owners: &ownerIndex{}}
	used := map[string]bool{}
	for _, name := range schema.Names() {
		e := schema.Element(name)
		tbl := sanitizeIdent(name)
		for used[tbl] {
			tbl += reservedSuffix
		}
		used[tbl] = true
		m.owners.position(tbl)
		ti := &TableInfo{Element: name, Table: tbl, HasValue: e.HasText()}
		for _, a := range e.Attrs {
			ti.Attrs = append(ti.Attrs, a.Name)
		}
		m.ByElement[name] = ti
		m.order = append(m.order, name)
	}
	for _, name := range schema.Names() {
		var parents []string
		for _, p := range schema.Parents(name) {
			parents = append(parents, m.ByElement[p].Table)
		}
		sort.Strings(parents)
		m.ByElement[name].ParentTables = parents
	}
	return m, nil
}

// Tables returns the table infos in schema declaration order.
func (m *Mapping) Tables() []*TableInfo {
	out := make([]*TableInfo, len(m.order))
	for i, name := range m.order {
		out[i] = m.ByElement[name]
	}
	return out
}

// TableFor returns the table info of an element type, or nil.
func (m *Mapping) TableFor(element string) *TableInfo { return m.ByElement[element] }

// AttrColumn is the column name an attribute maps to. The "a_" prefix
// already guarantees the name is no SQL keyword, so only punctuation needs
// rewriting.
func AttrColumn(attr string) string { return "a_" + rewritePunct(attr) }

// DDL emits the CREATE TABLE statements of the mapping, in declaration
// order. A FOREIGN KEY clause is emitted only when the element type has a
// unique parent type (shared children such as the hospital schema's name
// element have several possible parent tables).
func (m *Mapping) DDL() string {
	var b strings.Builder
	for _, ti := range m.Tables() {
		fmt.Fprintf(&b, "CREATE TABLE %s (id INT PRIMARY KEY, pid INT", ti.Table)
		for _, a := range ti.Attrs {
			fmt.Fprintf(&b, ", %s TEXT", AttrColumn(a))
		}
		if ti.HasValue {
			b.WriteString(", v TEXT")
		}
		fmt.Fprintf(&b, ", %s TEXT", SignColumn)
		if len(ti.ParentTables) == 1 {
			fmt.Fprintf(&b, ", FOREIGN KEY (pid) REFERENCES %s (id)", ti.ParentTables[0])
		}
		b.WriteString(");\n")
	}
	return b.String()
}

// IndexDDL emits CREATE INDEX statements over the pid and s columns of every
// table, in declaration order. The pid index resolves the parent-child joins
// of translated queries; the s index resolves sign predicates (pushdown
// queries, accessible-id sweeps) without full scans. Kept separate from
// DDL() so the shredded SQL scripts (Table 5 sizes, Figure 9 loading) retain
// the paper's shape; IntoDB executes both.
func (m *Mapping) IndexDDL() string {
	var b strings.Builder
	for _, ti := range m.Tables() {
		fmt.Fprintf(&b, "CREATE INDEX %s_pid_idx ON %s (pid);\n", ti.Table, ti.Table)
		fmt.Fprintf(&b, "CREATE INDEX %s_s_idx ON %s (%s);\n", ti.Table, ti.Table, SignColumn)
	}
	return b.String()
}

// sanitizeIdent makes an XML name a safe SQL identifier: dashes, dots and
// colons become underscores, and names that collide with SQL keywords get a
// suffix (XMark's "text", "from", "date" element types would otherwise be
// unparsable as table names).
func sanitizeIdent(name string) string {
	out := rewritePunct(name)
	if out == "" {
		out = "x"
	}
	if out[0] >= '0' && out[0] <= '9' {
		out = "x" + out
	}
	if sqlReserved[strings.ToUpper(out)] {
		out += reservedSuffix
	}
	return out
}

// rewritePunct replaces the XML name punctuation SQL identifiers disallow.
func rewritePunct(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '-' || c == '.' || c == ':' {
			b.WriteByte('_')
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// sqlReserved lists the keywords of the sqldb dialect (kept in sync with its
// lexer) plus the reserved column names of the mapping.
var sqlReserved = map[string]bool{
	"CREATE": true, "TABLE": true, "INDEX": true, "ON": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"UNION": true, "EXCEPT": true, "INTERSECT": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"PRIMARY": true, "KEY": true, "FOREIGN": true, "REFERENCES": true,
	"INT": true, "INTEGER": true, "BIGINT": true,
	"TEXT": true, "VARCHAR": true, "CHAR": true,
	"NULL": true, "IN": true, "COUNT": true, "AS": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "DISTINCT": true,
	"ID": true, "PID": true, "V": true, "S": true,
}
