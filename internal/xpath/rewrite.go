package xpath

import "strings"

// Query rewriting (after Mahfoud–Imine, "Secure Querying of Recursive XML
// Views", arXiv:1112.2605): instead of materializing sign annotations,
// the policy's accessibility condition is composed with the user query
// and the composition is evaluated over the *unannotated* document. A
// Rewriter holds the compiled form of one read policy — the allow and
// deny resource paths plus the Table 2 default-semantics and
// conflict-resolution bits — and provides
//
//   - the membership algebra (Accessible) that turns a node's allow/deny
//     scope membership into its accessibility, and
//   - the textual safe-query rendering (Rewrite) shown by plans and
//     EXPLAIN-style tooling.
//
// Unlike schema-aware sign expansion, nothing here enumerates schema
// paths, so the rewriter serves recursive DTDs.

// Rewriter is one policy compiled for rewriting enforcement.
type Rewriter struct {
	// Allow and Deny are the resources of the positive and negative read
	// rules.
	Allow, Deny []*Path
	// DefaultAllow is ds = "+"; ConflictAllow is cr = "+".
	DefaultAllow  bool
	ConflictAllow bool
}

// Accessible applies the Table 2 membership algebra: given whether a node
// lies in the allow-scope union A and the deny-scope union D, it reports
// the node's accessibility.
//
//	ds=+ cr=+  U − (D − A):  ¬(inD ∧ ¬inA)
//	ds=− cr=+  A:            inA
//	ds=+ cr=−  U − D:        ¬inD
//	ds=− cr=−  A − D:        inA ∧ ¬inD
func (r *Rewriter) Accessible(inAllow, inDeny bool) bool {
	switch {
	case r.DefaultAllow && r.ConflictAllow:
		return !(inDeny && !inAllow)
	case !r.DefaultAllow && r.ConflictAllow:
		return inAllow
	case r.DefaultAllow && !r.ConflictAllow:
		return !inDeny
	default:
		return inAllow && !inDeny
	}
}

// AccessExpr renders the policy's accessible set as a set-algebra
// expression over the rule paths, in the UNION/EXCEPT vocabulary of the
// annotation queries (U stands for the universe of element nodes).
func (r *Rewriter) AccessExpr() string {
	a := unionText(r.Allow)
	d := unionText(r.Deny)
	switch {
	case r.DefaultAllow && r.ConflictAllow:
		if d == "" {
			return "U"
		}
		if a == "" {
			return "U except " + d
		}
		return "U except (" + d + " except " + a + ")"
	case !r.DefaultAllow && r.ConflictAllow:
		if a == "" {
			return "()"
		}
		return a
	case r.DefaultAllow && !r.ConflictAllow:
		if d == "" {
			return "U"
		}
		return "U except " + d
	default:
		if a == "" {
			return "()"
		}
		if d == "" {
			return a
		}
		return "(" + a + ") except " + d
	}
}

func unionText(paths []*Path) string {
	if len(paths) == 0 {
		return ""
	}
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, " union ")
}

// Rewrite renders the safe query: the user query intersected with the
// policy's accessible set. This is the composed form the rewriting
// enforcer conceptually evaluates (its engine implementation computes the
// same intersection from the raw match set and the scope unions).
func (r *Rewriter) Rewrite(q *Path) string {
	return "(" + q.String() + ") intersect (" + r.AccessExpr() + ")"
}
