package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

type sqlTokKind uint8

const (
	sqlTokEOF sqlTokKind = iota
	sqlTokIdent
	sqlTokKeyword
	sqlTokNumber
	sqlTokString
	sqlTokSymbol // ( ) , . ; = <> != < <= > >= *
)

type sqlToken struct {
	kind sqlTokKind
	text string // keywords are upper-cased; identifiers keep their case
	num  int64
	pos  int
}

var sqlKeywords = map[string]bool{
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
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "LIMIT": true,
	"EXPLAIN": true,
}

type sqlLexer struct {
	src  string
	pos  int
	toks []sqlToken
}

func lexSQL(src string) ([]sqlToken, error) {
	// Size the token slice up front: batched IN lists produce thousands of
	// short tokens and repeated growslice copies otherwise dominate lexing.
	return lexSQLInto(src, make([]sqlToken, 0, len(src)/3+8))
}

// lexSQLInto lexes src appending to buf (len 0), letting callers recycle the
// token array across statements. Tokens never alias buf's memory — their
// text fields point into src or at interned keyword strings — so the array
// can be reused as soon as parsing finishes.
func lexSQLInto(src string, buf []sqlToken) ([]sqlToken, error) {
	l := &sqlLexer{src: src, toks: buf}
	n := len(src)
	for l.pos < n {
		c := src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < n && src[l.pos+1] == '-':
			// Line comment.
			for l.pos < n && src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'':
			start := l.pos
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= n {
					return nil, fmt.Errorf("sqldb: offset %d: unterminated string", start)
				}
				if src[l.pos] == '\'' {
					if l.pos+1 < n && src[l.pos+1] == '\'' {
						b.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(src[l.pos])
				l.pos++
			}
			l.emit(sqlToken{kind: sqlTokString, text: b.String(), pos: start})
		case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < n && src[l.pos+1] >= '0' && src[l.pos+1] <= '9' && l.numericContext()):
			start := l.pos
			if c == '-' {
				l.pos++
			}
			for l.pos < n && src[l.pos] >= '0' && src[l.pos] <= '9' {
				l.pos++
			}
			lit := src[start:l.pos]
			var v int64
			if len(lit) < 19 && lit[0] != '-' {
				// Fits in int64 without overflow checks; digits only.
				for i := 0; i < len(lit); i++ {
					v = v*10 + int64(lit[i]-'0')
				}
			} else {
				var err error
				v, err = strconv.ParseInt(lit, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sqldb: offset %d: bad number %q", start, lit)
				}
			}
			l.emit(sqlToken{kind: sqlTokNumber, text: lit, num: v, pos: start})
		case isSQLIdentStart(c):
			start := l.pos
			for l.pos < n && isSQLIdentChar(src[l.pos]) {
				l.pos++
			}
			word := src[start:l.pos]
			up := strings.ToUpper(word)
			if sqlKeywords[up] {
				l.emit(sqlToken{kind: sqlTokKeyword, text: up, pos: start})
			} else {
				l.emit(sqlToken{kind: sqlTokIdent, text: word, pos: start})
			}
		case c == '"':
			// Quoted identifier.
			start := l.pos
			l.pos++
			j := strings.IndexByte(src[l.pos:], '"')
			if j < 0 {
				return nil, fmt.Errorf("sqldb: offset %d: unterminated quoted identifier", start)
			}
			l.emit(sqlToken{kind: sqlTokIdent, text: src[l.pos : l.pos+j], pos: start})
			l.pos += j + 1
		default:
			start := l.pos
			two := ""
			if l.pos+1 < n {
				two = src[l.pos : l.pos+2]
			}
			switch two {
			case "<>", "!=", "<=", ">=":
				l.emit(sqlToken{kind: sqlTokSymbol, text: two, pos: start})
				l.pos += 2
				continue
			}
			switch c {
			case '(', ')', ',', '.', ';', '=', '<', '>', '*', '?':
				l.emit(sqlToken{kind: sqlTokSymbol, text: string(c), pos: start})
				l.pos++
			default:
				return nil, fmt.Errorf("sqldb: offset %d: unexpected character %q", l.pos, string(c))
			}
		}
	}
	l.emit(sqlToken{kind: sqlTokEOF, pos: n})
	return l.toks, nil
}

func (l *sqlLexer) emit(t sqlToken) { l.toks = append(l.toks, t) }

// numericContext reports whether a '-' at the current position can start a
// negative number literal (i.e. the previous token is not an identifier,
// number, string or ')').
func (l *sqlLexer) numericContext() bool {
	if len(l.toks) == 0 {
		return true
	}
	prev := l.toks[len(l.toks)-1]
	switch prev.kind {
	case sqlTokIdent, sqlTokNumber, sqlTokString:
		return false
	case sqlTokSymbol:
		return prev.text != ")"
	}
	return true
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isSQLIdentChar(c byte) bool {
	return isSQLIdentStart(c) || (c >= '0' && c <= '9') || c == '$'
}
