package shred

import (
	"fmt"
	"sort"
	"strings"

	"xmlac/internal/xpath"
)

// This file freezes the root-chain translation as the reference Translate
// is held to: a leading descendant step //l becomes one UNION branch per
// schema chain from the root to l, each joined down from the root table on
// pid = parent id. Translate instead scans l's own table once. Later steps
// and qualifiers translate the same way in both, so the reference shares
// stepFrom, attachPred and the block helpers with xpath2sql.go; tree
// evaluation (xpath.Eval) is the oracle independent of both.

// refTranslate is the reference for Translate.
func refTranslate(m *Mapping, p *xpath.Path) (string, error) {
	if !p.Absolute {
		return "", fmt.Errorf("shred: Translate requires an absolute path, got %q", p)
	}
	if len(p.Steps) == 0 {
		return "", fmt.Errorf("shred: cannot translate the empty path")
	}
	tr := &translator{m: m}
	variants, err := refMainVariants(tr, p)
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
		if s := v.block.sql(); !seen[s] {
			seen[s] = true
			blocks = append(blocks, s)
		}
	}
	sort.Strings(blocks)
	return strings.Join(blocks, " UNION "), nil
}

// refMainVariants resolves the main path with the leading descendant step
// expanded into root chains.
func refMainVariants(tr *translator, p *xpath.Path) ([]variant, error) {
	root := tr.m.Schema.Root
	var cur []variant
	for i, s := range p.Steps {
		var next []variant
		if i == 0 {
			switch s.Axis {
			case xpath.Child:
				if s.Test == xpath.Wildcard || s.Test == root {
					b := &selectBlock{}
					a := b.addAlias(tr.m.ByElement[root].Table)
					next = append(next, variant{block: b, label: root, alias: a})
				}
			case xpath.Descendant:
				for _, l := range tr.labelsMatching(s.Test) {
					chains, err := tr.m.Schema.PathsFromRoot(l)
					if err != nil {
						return nil, err
					}
					for _, chain := range chains {
						v, err := tr.buildChainFrom(&selectBlock{}, "", chain)
						if err != nil {
							return nil, err
						}
						next = append(next, v)
					}
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
