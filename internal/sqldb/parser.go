package sqldb

import (
	"fmt"
	"sync"
)

// tokPool recycles token arrays across ParseStatement calls. The parsed AST
// copies token values out (their strings alias the source text, not this
// array), so returning the array after parsing is safe.
var tokPool = sync.Pool{New: func() any { return new([]sqlToken) }}

// ParseStatement parses a single SQL statement (an optional trailing ';' is
// accepted).
func ParseStatement(src string) (Statement, error) {
	tp := tokPool.Get().(*[]sqlToken)
	toks, err := lexSQLInto(src, (*tp)[:0])
	if err != nil {
		*tp = toks
		tokPool.Put(tp)
		return nil, err
	}
	p := &sqlParser{src: src, toks: toks}
	st, err := p.parseStatement()
	if err == nil {
		p.acceptSym(";")
		if !p.atEOF() {
			err = p.errf("trailing input after statement")
		}
	}
	*tp = toks
	tokPool.Put(tp)
	if err != nil {
		return nil, err
	}
	return st, nil
}

type sqlParser struct {
	src  string
	toks []sqlToken
	pos  int
}

func (p *sqlParser) cur() sqlToken { return p.toks[p.pos] }
func (p *sqlParser) atEOF() bool   { return p.cur().kind == sqlTokEOF }
func (p *sqlParser) advance()      { p.pos++ }

func (p *sqlParser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at offset %d in %q: %s",
		p.cur().pos, truncate(p.src, 80), fmt.Sprintf(format, args...))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func (p *sqlParser) acceptKw(kw string) bool {
	if t := p.cur(); t.kind == sqlTokKeyword && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *sqlParser) acceptSym(s string) bool {
	if t := p.cur(); t.kind == sqlTokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *sqlParser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

// ident accepts an identifier; keywords that commonly double as column
// names in the shredded schema (none currently) are not special-cased.
func (p *sqlParser) ident() (string, error) {
	if t := p.cur(); t.kind == sqlTokIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected identifier")
}

func (p *sqlParser) parseStatement() (Statement, error) {
	switch t := p.cur(); {
	case t.kind == sqlTokKeyword && t.text == "EXPLAIN":
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(*ExplainStmt); nested {
			return nil, p.errf("EXPLAIN cannot be nested")
		}
		return &ExplainStmt{Stmt: inner}, nil
	case t.kind == sqlTokKeyword && t.text == "CREATE":
		return p.parseCreate()
	case t.kind == sqlTokKeyword && t.text == "INSERT":
		return p.parseInsert()
	case t.kind == sqlTokKeyword && t.text == "SELECT",
		t.kind == sqlTokSymbol && t.text == "(":
		return p.parseQuery()
	case t.kind == sqlTokKeyword && t.text == "UPDATE":
		return p.parseUpdate()
	case t.kind == sqlTokKeyword && t.text == "DELETE":
		return p.parseDelete()
	case t.kind == sqlTokKeyword && t.text == "BEGIN":
		p.advance()
		return &BeginStmt{}, nil
	case t.kind == sqlTokKeyword && t.text == "COMMIT":
		p.advance()
		return &CommitStmt{}, nil
	case t.kind == sqlTokKeyword && t.text == "ROLLBACK":
		p.advance()
		return &RollbackStmt{}, nil
	default:
		return nil, p.errf("expected a statement")
	}
}

func (p *sqlParser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	if p.acceptKw("INDEX") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		if p.acceptKw("PRIMARY") {
			// PRIMARY KEY (col) as a table constraint.
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			found := false
			for i := range st.Columns {
				if st.Columns[i].Name == col {
					st.Columns[i].PrimaryKey = true
					found = true
				}
			}
			if !found {
				return nil, p.errf("PRIMARY KEY references unknown column %q", col)
			}
		} else if p.acceptKw("FOREIGN") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			if err := p.expectKw("REFERENCES"); err != nil {
				return nil, err
			}
			rt, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			rc, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			st.ForeignKeys = append(st.ForeignKeys, ForeignKey{Column: col, RefTable: rt, RefColumn: rc})
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
		}
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseColumnDef() (Column, error) {
	name, err := p.ident()
	if err != nil {
		return Column{}, err
	}
	var typ ColumnType
	switch t := p.cur(); {
	case t.kind == sqlTokKeyword && (t.text == "INT" || t.text == "INTEGER" || t.text == "BIGINT"):
		typ = TypeInt
		p.advance()
	case t.kind == sqlTokKeyword && (t.text == "TEXT" || t.text == "VARCHAR" || t.text == "CHAR"):
		typ = TypeText
		p.advance()
		// Optional length, ignored: VARCHAR(64).
		if p.acceptSym("(") {
			if p.cur().kind != sqlTokNumber {
				return Column{}, p.errf("expected length")
			}
			p.advance()
			if err := p.expectSym(")"); err != nil {
				return Column{}, err
			}
		}
	default:
		return Column{}, p.errf("expected column type")
	}
	col := Column{Name: name, Type: typ}
	if p.acceptKw("PRIMARY") {
		if err := p.expectKw("KEY"); err != nil {
			return Column{}, err
		}
		col.PrimaryKey = true
	}
	return col, nil
}

func (p *sqlParser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *sqlParser) parseLiteral() (Value, error) {
	switch t := p.cur(); {
	case t.kind == sqlTokNumber:
		p.advance()
		return NewInt(t.num), nil
	case t.kind == sqlTokString:
		p.advance()
		return NewText(t.text), nil
	case t.kind == sqlTokKeyword && t.text == "NULL":
		p.advance()
		return Null, nil
	default:
		return Value{}, p.errf("expected literal")
	}
}

// parseQuery parses a compound query: select (UNION|EXCEPT|INTERSECT select)*
// left-associatively, with parentheses for explicit grouping, followed by
// optional ORDER BY and LIMIT clauses applying to the whole result.
func (p *sqlParser) parseQuery() (*Query, error) {
	left, err := p.parseQueryAtom()
	if err != nil {
		return nil, err
	}
	for {
		var op SetOp
		switch t := p.cur(); {
		case t.kind == sqlTokKeyword && t.text == "UNION":
			op = OpUnion
		case t.kind == sqlTokKeyword && t.text == "EXCEPT":
			op = OpExcept
		case t.kind == sqlTokKeyword && t.text == "INTERSECT":
			op = OpIntersect
		default:
			return p.parseOrderLimit(left)
		}
		p.advance()
		right, err := p.parseQueryAtom()
		if err != nil {
			return nil, err
		}
		left = &Query{Op: op, Left: left, Right: right, Limit: -1}
	}
}

// parseOrderLimit attaches trailing ORDER BY / LIMIT clauses to a query.
func (p *sqlParser) parseOrderLimit(q *Query) (*Query, error) {
	q.Limit = -1
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			item := OrderItem{}
			switch t := p.cur(); {
			case t.kind == sqlTokNumber:
				p.advance()
				if t.num < 1 {
					return nil, p.errf("ORDER BY position must be >= 1")
				}
				item.Position = int(t.num)
			case t.kind == sqlTokIdent:
				c, err := p.parseColRef()
				if err != nil {
					return nil, err
				}
				item.Column = c.String()
			default:
				return nil, p.errf("expected column or position in ORDER BY")
			}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.cur()
		if t.kind != sqlTokNumber || t.num < 0 {
			return nil, p.errf("expected non-negative LIMIT count")
		}
		p.advance()
		q.Limit = int(t.num)
	}
	return q, nil
}

func (p *sqlParser) parseQueryAtom() (*Query, error) {
	if p.acceptSym("(") {
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &Query{Simple: sel, Limit: -1}, nil
}

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
	if p.acceptKw("DISTINCT") {
		st.Distinct = true
	}
	switch t := p.cur(); {
	case t.kind == sqlTokSymbol && t.text == "*":
		p.advance()
		st.Star = true
	case t.kind == sqlTokKeyword && t.text == "COUNT":
		p.advance()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if err := p.expectSym("*"); err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.CountStar = true
	default:
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		tbl, err := p.ident()
		if err != nil {
			return nil, err
		}
		item := FromItem{Table: tbl, Alias: tbl}
		p.acceptKw("AS")
		if t := p.cur(); t.kind == sqlTokIdent {
			item.Alias = t.text
			p.advance()
		}
		st.From = append(st.From, item)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	return st, nil
}

func (p *sqlParser) parseColRef() (ColRef, error) {
	a, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptSym(".") {
		c, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Alias: a, Column: c}, nil
	}
	return ColRef{Column: a}, nil
}

func (p *sqlParser) parseConjunction() ([]Predicate, error) {
	var preds []Predicate
	for {
		pr, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		if p.acceptKw("AND") {
			continue
		}
		return preds, nil
	}
}

func (p *sqlParser) parsePredicate() (Predicate, error) {
	left, err := p.parseOperand()
	if err != nil {
		return Predicate{}, err
	}
	if p.acceptKw("IN") {
		if !left.IsCol {
			return Predicate{}, p.errf("IN requires a column on the left")
		}
		if err := p.expectSym("("); err != nil {
			return Predicate{}, err
		}
		// "IN (?)" is a prepared-statement placeholder (see PrepareIn): the
		// parsed predicate carries an empty-but-non-nil list that execution
		// binds per call. Executed directly it matches nothing, the SQL
		// semantics of an empty IN list.
		if p.acceptSym("?") {
			if err := p.expectSym(")"); err != nil {
				return Predicate{}, err
			}
			return Predicate{Left: left, In: []Value{}}, nil
		}
		// Size the list by counting commas up to the closing paren: batched
		// id lists carry hundreds of literals and growslice would otherwise
		// recopy the accumulated values log-many times.
		count := 1
		for i := p.pos; i < len(p.toks); i++ {
			t := p.toks[i]
			if t.kind != sqlTokSymbol {
				continue
			}
			if t.text == "," {
				count++
			} else if t.text == ")" {
				break
			}
		}
		vals := make([]Value, 0, count)
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return Predicate{}, err
			}
			vals = append(vals, v)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return Predicate{}, err
		}
		return Predicate{Left: left, In: vals}, nil
	}
	t := p.cur()
	if t.kind != sqlTokSymbol {
		return Predicate{}, p.errf("expected comparison operator")
	}
	var op CmpOp
	switch t.text {
	case "=":
		op = CmpEq
	case "<>", "!=":
		op = CmpNe
	case "<":
		op = CmpLt
	case "<=":
		op = CmpLe
	case ">":
		op = CmpGt
	case ">=":
		op = CmpGe
	default:
		return Predicate{}, p.errf("expected comparison operator, got %q", t.text)
	}
	p.advance()
	right, err := p.parseOperand()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Left: left, Op: op, Right: right}, nil
}

func (p *sqlParser) parseOperand() (Operand, error) {
	switch t := p.cur(); {
	case t.kind == sqlTokIdent:
		c, err := p.parseColRef()
		if err != nil {
			return Operand{}, err
		}
		return Operand{IsCol: true, Col: c}, nil
	default:
		v, err := p.parseLiteral()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Lit: v}, nil
	}
}

func (p *sqlParser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, struct {
			Column string
			Value  Value
		}{col, v})
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	return st, nil
}

func (p *sqlParser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.acceptKw("WHERE") {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	return st, nil
}
