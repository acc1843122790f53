package core

import (
	"xmlac/internal/xmltree"
	"xmlac/internal/xpath"
)

// InsertLocators exposes insertLocators to the external test package.
func InsertLocators(parentPath *xpath.Path, tmpl *xmltree.Node) []*xpath.Path {
	return insertLocators(parentPath, tmpl)
}
