// Package sqldb implements the relational database substrate of the
// reproduction: an in-memory RDBMS with a SQL subset sufficient for the
// ShreX-style mapping and the paper's annotation workload — CREATE TABLE,
// INSERT, SELECT with multi-way equi-joins, UNION/EXCEPT/INTERSECT with set
// semantics, UPDATE and DELETE.
//
// Two storage engines are provided, standing in for the two relational
// systems of the paper's evaluation:
//
//   - EngineRow ("pgsim") stores tuples row-major with row-at-a-time
//     processing, the PostgreSQL-like configuration;
//   - EngineColumn ("monetsim") stores relations as typed column vectors
//     scanned and updated by vectorized batch operators, the MonetDB-like
//     configuration.
//
// The engines share parser, planner and executor; only the physical layout
// and scan operators differ, which is what produces the paper's relative
// shapes (row stores load faster statement-by-statement; column stores
// scan and join faster on large data).
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// ValueKind discriminates SQL runtime values.
type ValueKind uint8

const (
	// KindNull is the SQL NULL.
	KindNull ValueKind = iota
	// KindInt is a 64-bit integer.
	KindInt
	// KindText is a string.
	KindText
)

// Value is a SQL runtime value.
type Value struct {
	Kind ValueKind
	I    int64
	S    string
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// NewInt builds an integer value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewText builds a text value.
func NewText(s string) Value { return Value{Kind: KindText, S: s} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	default:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
}

// Equal reports SQL equality; any comparison involving NULL is false.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	c, ok := v.compare(o)
	return ok && c == 0
}

// Compare applies a comparison operator with SQL three-valued logic
// collapsed to boolean: comparisons involving NULL or mismatched
// incomparable types are false.
func (v Value) Compare(op CmpOp, o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return false
	}
	c, ok := v.compare(o)
	if !ok {
		// Incomparable types: only != can hold.
		return op == CmpNe
	}
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// compare returns -1/0/1 and whether the two values are comparable. Integers
// compare numerically; text compares lexicographically; an int compared with
// text succeeds when the text parses as a *number* (the shredder stores all
// XML values as text, and annotation queries compare them with numeric
// literals — mirroring XPath's number coercion, under which "25.00" > 20
// holds).
func (v Value) compare(o Value) (int, bool) {
	switch {
	case v.Kind == KindInt && o.Kind == KindInt:
		return cmpInt(v.I, o.I), true
	case v.Kind == KindText && o.Kind == KindText:
		return strings.Compare(v.S, o.S), true
	case v.Kind == KindInt && o.Kind == KindText:
		if f, err := strconv.ParseFloat(strings.TrimSpace(o.S), 64); err == nil {
			return cmpFloat(float64(v.I), f), true
		}
		return 0, false
	case v.Kind == KindText && o.Kind == KindInt:
		if f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64); err == nil {
			return cmpFloat(f, float64(o.I)), true
		}
		return 0, false
	}
	return 0, false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// key returns a map key identifying the value for hashing (joins, set
// operations, DISTINCT). Int and parseable text deliberately hash
// differently: join keys in the shredded schema are always ints.
func (v Value) key() string {
	switch v.Kind {
	case KindNull:
		return "\x00N"
	case KindInt:
		return "\x00I" + strconv.FormatInt(v.I, 10)
	default:
		return "\x00T" + v.S
	}
}

// ColumnType is a declared column type.
type ColumnType uint8

const (
	// TypeInt is INT / INTEGER / BIGINT.
	TypeInt ColumnType = iota
	// TypeText is TEXT / VARCHAR / CHAR.
	TypeText
)

// String renders the type in SQL syntax.
func (t ColumnType) String() string {
	if t == TypeInt {
		return "INT"
	}
	return "TEXT"
}

// coerce checks/adapts a value to a column type on INSERT and UPDATE.
func coerce(v Value, t ColumnType) (Value, error) {
	if v.Kind == KindNull {
		return v, nil
	}
	switch t {
	case TypeInt:
		if v.Kind == KindInt {
			return v, nil
		}
		if i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64); err == nil {
			return NewInt(i), nil
		}
		return Null, fmt.Errorf("sqldb: cannot store %s in INT column", v)
	default:
		if v.Kind == KindText {
			return v, nil
		}
		return NewText(strconv.FormatInt(v.I, 10)), nil
	}
}
