package xmltree

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements the fast XML scanner used by Parse. The stdlib
// encoding/xml decoder (see parse_std.go) processes well-formed documents
// at roughly 10 MB/s, which is an order of magnitude slower than a
// purpose-built scanner and would distort the loading-time experiment
// (Figure 9) where native-store loading must reflect parsing cost, not
// decoder overhead. ParseStd remains available and the test suite checks
// both parsers produce identical trees.
//
// Supported syntax: elements with attributes (single- or double-quoted),
// character data with the five predefined entities and numeric character
// references, CDATA sections, comments, processing instructions, an
// optional XML declaration and an optional DOCTYPE (without internal-subset
// markup declarations containing '>'). Namespace prefixes are kept as part
// of the name, matching encoding/xml's Local-name behavior only for
// unprefixed documents — the generators here emit none.

type scanner struct {
	src []byte
	pos int
	// names interns element and attribute names: a document uses few
	// distinct names but mentions them constantly, so interning removes the
	// per-mention string allocation.
	names map[string]string
}

func (s *scanner) intern(b []byte) string {
	if s.names == nil {
		s.names = make(map[string]string, 64)
	}
	if n, ok := s.names[string(b)]; ok { // compiler avoids the alloc here
		return n
	}
	n := string(b)
	s.names[n] = n
	return n
}

func (s *scanner) errf(format string, args ...any) error {
	line := 1
	for i := 0; i < s.pos && i < len(s.src); i++ {
		if s.src[i] == '\n' {
			line++
		}
	}
	return fmt.Errorf("xmltree: parse: line %d: %s", line, fmt.Sprintf(format, args...))
}

// parseFast is the scanner entry point.
func parseFast(data []byte) (*Document, error) {
	s := &scanner{src: data}
	var doc *Document
	var cur *Node
	var text strings.Builder
	flushText := func() {
		if text.Len() == 0 {
			return
		}
		t := strings.TrimSpace(text.String())
		text.Reset()
		if t == "" || cur == nil {
			return
		}
		doc.AddText(cur, t)
	}
	for {
		s.skipProlog(doc == nil && cur == nil)
		if s.pos >= len(s.src) {
			break
		}
		c := s.src[s.pos]
		if c != '<' {
			// Character data.
			start := s.pos
			for s.pos < len(s.src) && s.src[s.pos] != '<' {
				s.pos++
			}
			if cur != nil {
				decoded, err := decodeEntities(s.src[start:s.pos])
				if err != nil {
					return nil, s.errf("%v", err)
				}
				text.WriteString(decoded)
			} else if strings.TrimSpace(string(s.src[start:s.pos])) != "" {
				return nil, s.errf("character data outside the root element")
			}
			continue
		}
		// '<' dispatch.
		if s.pos+1 >= len(s.src) {
			return nil, s.errf("unexpected end of input after '<'")
		}
		switch s.src[s.pos+1] {
		case '!':
			if s.hasPrefix("<!--") {
				if err := s.skipUntil("-->"); err != nil {
					return nil, err
				}
				continue
			}
			if s.hasPrefix("<![CDATA[") {
				start := s.pos + len("<![CDATA[")
				end := indexFrom(s.src, start, "]]>")
				if end < 0 {
					return nil, s.errf("unterminated CDATA section")
				}
				if cur == nil {
					return nil, s.errf("CDATA outside the root element")
				}
				text.Write(s.src[start:end])
				s.pos = end + 3
				continue
			}
			if s.hasPrefix("<!DOCTYPE") {
				if err := s.skipDoctype(); err != nil {
					return nil, err
				}
				continue
			}
			return nil, s.errf("unsupported markup declaration")
		case '?':
			if err := s.skipUntil("?>"); err != nil {
				return nil, err
			}
			continue
		case '/':
			// End tag.
			flushText()
			s.pos += 2
			name, err := s.name()
			if err != nil {
				return nil, err
			}
			s.skipWS()
			if s.pos >= len(s.src) || s.src[s.pos] != '>' {
				return nil, s.errf("malformed end tag </%s", name)
			}
			s.pos++
			if cur == nil {
				return nil, s.errf("unbalanced end tag </%s>", name)
			}
			if cur.Label != name {
				return nil, s.errf("end tag </%s> does not match <%s>", name, cur.Label)
			}
			cur = cur.parent
		default:
			// Start tag.
			flushText()
			s.pos++
			name, err := s.name()
			if err != nil {
				return nil, err
			}
			var n *Node
			if doc == nil {
				// Guess one node per 32 bytes of input (XMark text runs
				// about one per 25) to spare the id index most rehashing.
				doc = newDocument(name, len(s.src)/32)
				n = doc.root
			} else {
				if cur == nil {
					return nil, s.errf("multiple root elements (<%s>)", name)
				}
				n = doc.AddElement(cur, name)
			}
			selfClose, err := s.attributes(n)
			if err != nil {
				return nil, err
			}
			if !selfClose {
				cur = n
			}
		}
	}
	if doc == nil {
		return nil, fmt.Errorf("xmltree: parse: empty document")
	}
	if cur != nil {
		return nil, fmt.Errorf("xmltree: parse: unexpected end of input inside element %s", cur.Label)
	}
	return doc, nil
}

// skipProlog consumes leading whitespace outside elements (only meaningful
// before the root); inside content, whitespace is handled as text.
func (s *scanner) skipProlog(outside bool) {
	if !outside {
		return
	}
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *scanner) hasPrefix(p string) bool {
	return s.pos+len(p) <= len(s.src) && string(s.src[s.pos:s.pos+len(p)]) == p
}

func (s *scanner) skipUntil(end string) error {
	i := indexFrom(s.src, s.pos, end)
	if i < 0 {
		return s.errf("unterminated %q construct", end)
	}
	s.pos = i + len(end)
	return nil
}

func indexFrom(src []byte, from int, sub string) int {
	i := strings.Index(string(src[from:]), sub)
	if i < 0 {
		return -1
	}
	return from + i
}

// skipDoctype consumes a DOCTYPE declaration, honoring an internal subset
// in square brackets.
func (s *scanner) skipDoctype() error {
	depth := 0
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth == 0 {
				s.pos++
				return nil
			}
		}
		s.pos++
	}
	return s.errf("unterminated DOCTYPE")
}

func (s *scanner) skipWS() {
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *scanner) name() (string, error) {
	start := s.pos
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '/' || c == '=' {
			break
		}
		if c == '<' {
			return "", s.errf("'<' inside a name")
		}
		s.pos++
	}
	if s.pos == start {
		return "", s.errf("expected a name")
	}
	return s.intern(s.src[start:s.pos]), nil
}

// attributes parses the attribute list and tag close of a start tag; it
// reports whether the tag was self-closing.
func (s *scanner) attributes(n *Node) (bool, error) {
	for {
		s.skipWS()
		if s.pos >= len(s.src) {
			return false, s.errf("unterminated start tag <%s", n.Label)
		}
		switch s.src[s.pos] {
		case '>':
			s.pos++
			return false, nil
		case '/':
			if s.pos+1 < len(s.src) && s.src[s.pos+1] == '>' {
				s.pos += 2
				return true, nil
			}
			return false, s.errf("stray '/' in start tag <%s", n.Label)
		}
		key, err := s.name()
		if err != nil {
			return false, err
		}
		s.skipWS()
		if s.pos >= len(s.src) || s.src[s.pos] != '=' {
			return false, s.errf("attribute %s missing '='", key)
		}
		s.pos++
		s.skipWS()
		if s.pos >= len(s.src) || (s.src[s.pos] != '"' && s.src[s.pos] != '\'') {
			return false, s.errf("attribute %s missing quoted value", key)
		}
		q := s.src[s.pos]
		s.pos++
		start := s.pos
		for s.pos < len(s.src) && s.src[s.pos] != q {
			s.pos++
		}
		if s.pos >= len(s.src) {
			return false, s.errf("unterminated attribute value for %s", key)
		}
		val, err := decodeEntities(s.src[start:s.pos])
		if err != nil {
			return false, s.errf("%v", err)
		}
		s.pos++
		if key == SignAttr {
			sign, err := ParseSign(val)
			if err != nil {
				return false, err
			}
			n.Sign = sign
			continue
		}
		if n.Attrs == nil {
			n.Attrs = make(map[string]string)
		}
		if _, dup := n.Attrs[key]; dup {
			return false, s.errf("duplicate attribute %s on <%s>", key, n.Label)
		}
		n.Attrs[key] = val
	}
}

// decodeEntities expands the predefined entities and numeric character
// references; the fast path (no '&') avoids allocation.
func decodeEntities(b []byte) (string, error) {
	amp := -1
	for i, c := range b {
		if c == '&' {
			amp = i
			break
		}
	}
	if amp < 0 {
		return string(b), nil
	}
	var out strings.Builder
	out.Grow(len(b))
	out.Write(b[:amp])
	i := amp
	for i < len(b) {
		c := b[i]
		if c != '&' {
			out.WriteByte(c)
			i++
			continue
		}
		semi := -1
		for j := i + 1; j < len(b) && j < i+12; j++ {
			if b[j] == ';' {
				semi = j
				break
			}
		}
		if semi < 0 {
			return "", fmt.Errorf("unterminated entity reference")
		}
		ent := string(b[i+1 : semi])
		switch ent {
		case "amp":
			out.WriteByte('&')
		case "lt":
			out.WriteByte('<')
		case "gt":
			out.WriteByte('>')
		case "quot":
			out.WriteByte('"')
		case "apos":
			out.WriteByte('\'')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				numeric := ent[1:]
				base := 10
				if numeric[0] == 'x' || numeric[0] == 'X' {
					numeric = numeric[1:]
					base = 16
				}
				r, err := strconv.ParseUint(numeric, base, 32)
				if err != nil {
					return "", fmt.Errorf("invalid character reference &%s;", ent)
				}
				out.WriteRune(rune(r))
			} else {
				return "", fmt.Errorf("unknown entity &%s;", ent)
			}
		}
		i = semi + 1
	}
	return out.String(), nil
}

// Parse reads an XML document using the fast scanner. Element and
// character-data content is kept; comments, processing instructions, the
// XML declaration and DOCTYPE are skipped. Whitespace-only text between
// elements is dropped (the model is a data tree, not a
// formatting-preserving DOM). A sign attribute, if present, is decoded into
// the node's Sign field.
func Parse(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return parseFast(data)
}

// ParseString is Parse over an in-memory string.
func ParseString(s string) (*Document, error) {
	return parseFast([]byte(s))
}
