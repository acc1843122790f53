package shred

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"xmlac/internal/xpath"
)

// Translate converts an absolute XPath expression of the paper's fragment
// into a SQL query over the shredded representation that returns the
// universal identifiers of the matched nodes — the translation ShreX
// performs in the paper's system (Section 5.2 shows the queries Q1, Q3, Q7
// it produces for the hospital rules).
//
// The translation resolves the expression against the schema: every
// descendant axis and every wildcard expands into the finitely many
// child-axis label chains the (non-recursive) schema admits. Each fully
// concrete resolution becomes one SELECT block whose FROM list has one
// alias per path node, joined on pid = parent id; qualifiers add further
// joins and value comparisons add conditions on the v column. Resolutions
// are combined with UNION (set semantics), which also gives existential
// qualifiers with several schema chains their disjunctive meaning. An
// expression the schema can never match translates to a query returning no
// rows.
//
// A leading descendant step //l is the exception: it starts one block at
// l's own table (SELECT t1.id FROM l t1, plus the step's qualifiers) for
// each label some schema chain from the root reaches, rather than one
// block per such chain joined down from the root. Each database stores one
// document and every row of l's table is an l element in it, so the two
// select the same ids on every document the schema validates; on one it
// does not, the table scan also finds l elements the schema misplaces, as
// tree evaluation does. Only the first step starts this way: a later
// step's table also holds rows under other parents.
func Translate(m *Mapping, p *xpath.Path) (string, error) {
	return translate(m, p, false)
}

// TranslateAccessible is Translate with the access check folded into the
// query (sign-predicate pushdown): every UNION branch additionally requires
// the matched node's sign column to be '+', so the query returns exactly the
// accessible subset of Translate's result in one pass inside the joins. The
// all-or-nothing decision then reduces to comparing the two cardinalities.
//
// The predicate is emitted on the output alias only, not on every step
// table: the paper's request semantics checks the signs of the *matched*
// nodes, and an accessible node may well be reached through an inaccessible
// ancestor or qualifier witness. Constraining intermediate aliases would
// deny requests the reference path grants.
func TranslateAccessible(m *Mapping, p *xpath.Path) (string, error) {
	return translate(m, p, true)
}

func translate(m *Mapping, p *xpath.Path, signed bool) (string, error) {
	if !p.Absolute {
		return "", fmt.Errorf("shred: Translate requires an absolute path, got %q", p)
	}
	if len(p.Steps) == 0 {
		return "", fmt.Errorf("shred: cannot translate the empty path")
	}
	tr := &translator{m: m}
	variants, err := tr.mainVariants(p)
	if err != nil {
		return "", err
	}
	if len(variants) == 0 {
		return tr.emptyQuery(), nil
	}
	seen := map[string]bool{}
	var blocks []string
	for _, v := range variants {
		v.block.out = v.alias
		if signed {
			// Every final variant owns its block (forks clone), so appending
			// the sign condition cannot leak into sibling branches.
			v.block.conds = append(v.block.conds, v.alias+"."+SignColumn+" = '+'")
		}
		s := v.block.sql()
		if !seen[s] {
			seen[s] = true
			blocks = append(blocks, s)
		}
	}
	sort.Strings(blocks)
	return strings.Join(blocks, " UNION "), nil
}

type translator struct {
	m *Mapping
}

// emptyQuery returns a syntactically valid query with no results (universal
// identifiers start at 1).
func (tr *translator) emptyQuery() string {
	t := tr.m.Tables()[0].Table
	return fmt.Sprintf("SELECT id FROM %s WHERE id = -1", t)
}

// selectBlock is one SELECT under construction.
type selectBlock struct {
	froms  []string // "table alias"
	conds  []string
	out    string // output alias
	nAlias int
}

func (b *selectBlock) clone() *selectBlock {
	return &selectBlock{
		froms:  append([]string(nil), b.froms...),
		conds:  append([]string(nil), b.conds...),
		out:    b.out,
		nAlias: b.nAlias,
	}
}

func (b *selectBlock) addAlias(table string) string {
	b.nAlias++
	a := fmt.Sprintf("t%d", b.nAlias)
	b.froms = append(b.froms, table+" "+a)
	return a
}

func (b *selectBlock) sql() string {
	s := "SELECT " + b.out + ".id FROM " + strings.Join(b.froms, ", ")
	if len(b.conds) > 0 {
		s += " WHERE " + strings.Join(b.conds, " AND ")
	}
	return s
}

// variant is a partially built SELECT: the block plus the schema label and
// alias of the cursor node (the node the next step moves from, or the node
// a qualifier constrains).
type variant struct {
	block *selectBlock
	label string
	alias string
}

// mainVariants resolves the main path into concrete variants, attaching
// qualifiers along the way.
func (tr *translator) mainVariants(p *xpath.Path) ([]variant, error) {
	root := tr.m.Schema.Root
	var cur []variant
	for i, s := range p.Steps {
		var next []variant
		if i == 0 {
			// The context is the virtual document node: its only child is
			// the schema root; its descendants are the root element and
			// everything below it.
			switch s.Axis {
			case xpath.Child:
				if s.Test == xpath.Wildcard || s.Test == root {
					b := &selectBlock{}
					a := b.addAlias(tr.m.ByElement[root].Table)
					next = append(next, variant{block: b, label: root, alias: a})
				}
			case xpath.Descendant:
				// //l is all of l's table (see Translate).
				for _, l := range tr.labelsMatching(s.Test) {
					chains, err := tr.m.Schema.PathsFromRoot(l)
					if err != nil {
						return nil, err
					}
					if len(chains) == 0 {
						continue
					}
					v, err := tr.buildChainFrom(&selectBlock{}, "", []string{l})
					if err != nil {
						return nil, err
					}
					next = append(next, v)
				}
			}
		} else {
			for _, cv := range cur {
				vs, err := tr.stepFrom(cv, s.Axis, s.Test)
				if err != nil {
					return nil, err
				}
				next = append(next, vs...)
			}
		}
		// Attach the step's qualifiers, which may fork further.
		for _, q := range s.Preds {
			var withPred []variant
			for _, v := range next {
				forks, err := tr.attachPred(v, q)
				if err != nil {
					return nil, err
				}
				withPred = append(withPred, forks...)
			}
			next = withPred
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	return cur, nil
}

// stepFrom advances one variant by one main-path step, forking per schema
// resolution.
func (tr *translator) stepFrom(v variant, axis xpath.Axis, test string) ([]variant, error) {
	var out []variant
	switch axis {
	case xpath.Child:
		e := tr.m.Schema.Element(v.label)
		if e == nil {
			return nil, nil
		}
		for _, c := range e.ChildNames() {
			if test != xpath.Wildcard && c != test {
				continue
			}
			nb := v.block.clone()
			a := nb.addAlias(tr.m.ByElement[c].Table)
			nb.conds = append(nb.conds, a+".pid = "+v.alias+".id")
			out = append(out, variant{block: nb, label: c, alias: a})
		}
	case xpath.Descendant:
		for _, l := range tr.labelsMatching(test) {
			chains, err := tr.m.Schema.Paths(v.label, l)
			if err != nil {
				return nil, err
			}
			for _, chain := range chains {
				if len(chain) < 2 {
					continue // descendant excludes the context itself
				}
				nb := v.block.clone()
				nv, err := tr.buildChainFrom(nb, v.alias, chain[1:])
				if err != nil {
					return nil, err
				}
				out = append(out, nv)
			}
		}
	}
	return out, nil
}

// buildChainFrom appends a child-axis label chain below the given alias
// (an empty alias leaves the chain's first table unjoined: every row of it
// is a candidate).
func (tr *translator) buildChainFrom(b *selectBlock, parentAlias string, chain []string) (variant, error) {
	alias := parentAlias
	label := ""
	for _, l := range chain {
		ti := tr.m.ByElement[l]
		if ti == nil {
			return variant{}, fmt.Errorf("shred: element type %q not in mapping", l)
		}
		a := b.addAlias(ti.Table)
		if alias != "" {
			b.conds = append(b.conds, a+".pid = "+alias+".id")
		}
		alias = a
		label = l
	}
	return variant{block: b, label: label, alias: alias}, nil
}

// labelsMatching returns the schema labels a node test can denote.
func (tr *translator) labelsMatching(test string) []string {
	if test != xpath.Wildcard {
		if tr.m.ByElement[test] == nil {
			return nil
		}
		return []string{test}
	}
	names := tr.m.Schema.Names()
	out := make([]string, len(names))
	copy(out, names)
	sort.Strings(out)
	return out
}

// attachPred embeds a qualifier at the variant's cursor node. The result is
// the list of forked variants (each fork is one schema resolution of the
// qualifier; their UNION realizes the qualifier's existential semantics).
// An empty result means the qualifier is schema-unsatisfiable there.
func (tr *translator) attachPred(v variant, q *xpath.Pred) ([]variant, error) {
	switch q.Kind {
	case xpath.Or:
		// Disjunction forks into UNION branches (set semantics dedups).
		lefts, err := tr.attachPred(v, q.Left)
		if err != nil {
			return nil, err
		}
		rights, err := tr.attachPred(v, q.Right)
		if err != nil {
			return nil, err
		}
		return append(lefts, rights...), nil
	case xpath.And:
		lefts, err := tr.attachPred(v, q.Left)
		if err != nil {
			return nil, err
		}
		var out []variant
		for _, lv := range lefts {
			rights, err := tr.attachPred(lv, q.Right)
			if err != nil {
				return nil, err
			}
			out = append(out, rights...)
		}
		return out, nil
	case xpath.Exists:
		return tr.attachPredPath(v, q.Path, nil)
	case xpath.Cmp:
		return tr.attachPredPath(v, q.Path, &valueCond{op: q.Op, lit: q.Value})
	}
	return nil, fmt.Errorf("shred: unknown qualifier kind")
}

type valueCond struct {
	op  xpath.CmpOp
	lit xpath.Literal
}

// attachPredPath embeds a relative qualifier path as joins from the
// variant's cursor, forking per schema resolution. The returned variants
// keep the *main* cursor (label/alias) of v, so subsequent main-path steps
// continue from the right node.
func (tr *translator) attachPredPath(v variant, p *xpath.Path, vc *valueCond) ([]variant, error) {
	// qv tracks a fork: the block plus the qualifier-path cursor within it.
	type qv struct {
		block *selectBlock
		label string
		alias string
	}
	cur := []qv{{block: v.block, label: v.label, alias: v.alias}}
	for _, s := range p.Steps {
		var next []qv
		for _, st := range cur {
			switch s.Axis {
			case xpath.Child:
				e := tr.m.Schema.Element(st.label)
				if e == nil {
					continue
				}
				for _, c := range e.ChildNames() {
					if s.Test != xpath.Wildcard && c != s.Test {
						continue
					}
					nb := st.block.clone()
					a := nb.addAlias(tr.m.ByElement[c].Table)
					nb.conds = append(nb.conds, a+".pid = "+st.alias+".id")
					next = append(next, qv{block: nb, label: c, alias: a})
				}
			case xpath.Descendant:
				for _, l := range tr.labelsMatching(s.Test) {
					chains, err := tr.m.Schema.Paths(st.label, l)
					if err != nil {
						return nil, err
					}
					for _, chain := range chains {
						if len(chain) < 2 {
							continue
						}
						nb := st.block.clone()
						nv, err := tr.buildChainFrom(nb, st.alias, chain[1:])
						if err != nil {
							return nil, err
						}
						next = append(next, qv{block: nv.block, label: nv.label, alias: nv.alias})
					}
				}
			}
		}
		// Nested qualifiers attach at each fork's resolved node.
		if len(s.Preds) > 0 {
			var withNested []qv
			for _, st := range next {
				forks := []variant{{block: st.block, label: st.label, alias: st.alias}}
				for _, nq := range s.Preds {
					var acc []variant
					for _, f := range forks {
						fs, err := tr.attachPred(f, nq)
						if err != nil {
							return nil, err
						}
						acc = append(acc, fs...)
					}
					forks = acc
				}
				for _, f := range forks {
					withNested = append(withNested, qv{block: f.block, label: st.label, alias: st.alias})
				}
			}
			next = withNested
		}
		cur = next
		if len(cur) == 0 {
			return nil, nil
		}
	}
	var out []variant
	for _, st := range cur {
		if vc != nil {
			ok, err := tr.addValueCond(st.block, st.label, st.alias, vc)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, variant{block: st.block, label: v.label, alias: v.alias})
	}
	return out, nil
}

// addValueCond emits the v-column comparison of a value qualifier; it
// reports false when the schema says the element never has character data,
// making the comparison unsatisfiable.
func (tr *translator) addValueCond(b *selectBlock, label, alias string, vc *valueCond) (bool, error) {
	ti := tr.m.ByElement[label]
	if ti == nil || !ti.HasValue {
		return false, nil
	}
	var lit string
	if vc.lit.IsNum {
		if vc.lit.Num != float64(int64(vc.lit.Num)) {
			return false, fmt.Errorf("shred: non-integer literal %v not supported by the SQL subset", vc.lit.Num)
		}
		lit = strconv.FormatInt(int64(vc.lit.Num), 10)
	} else {
		lit = "'" + strings.ReplaceAll(vc.lit.Str, "'", "''") + "'"
	}
	op := map[xpath.CmpOp]string{
		xpath.Eq: "=", xpath.Ne: "<>", xpath.Lt: "<",
		xpath.Le: "<=", xpath.Gt: ">", xpath.Ge: ">=",
	}[vc.op]
	b.conds = append(b.conds, alias+".v "+op+" "+lit)
	return true, nil
}
