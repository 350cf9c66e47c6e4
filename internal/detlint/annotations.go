package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The one function annotation extends the rule set with a fact the
// analyzers cannot infer:
//
//	//detlint:noalloc — the function body must not heap-allocate; the
//	  noalloc analyzer verifies it against `go build -gcflags=-m` output.
//
// The annotation goes in the function's doc comment (a comment group
// directly above the declaration). Anywhere else it silently does
// nothing, so a floating annotation is reported under the pseudo-rule
// "detlint".
const noallocDirective = "detlint:noalloc"

// annotation records one annotated function.
type annotation struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	pos  token.Position // position of the directive comment
}

// collectAnnotations records the annotated functions of the target
// packages and returns the malformed-annotation findings among them.
// Only target packages report noalloc findings, so only they are probed.
func collectAnnotations(mod *Module, targets []*Package) []Finding {
	var noalloc []*annotation // deterministic collection order
	var bad []Finding
	for _, pkg := range targets {
		for _, file := range pkg.Files {
			attached := make(map[*ast.Comment]bool)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !isNoallocAnnotation(c) {
						continue
					}
					attached[c] = true
					pos := mod.Fset.Position(c.Pos())
					fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if fd.Body == nil {
						bad = append(bad, Finding{Rule: "detlint", Pos: pos,
							Msg: fmt.Sprintf("//%s on a bodyless declaration; the escape gate needs a Go body", noallocDirective)})
						continue
					}
					noalloc = append(noalloc, &annotation{fn: fn, decl: fd, pkg: pkg, pos: pos})
				}
			}
			for _, group := range file.Comments {
				for _, c := range group.List {
					if isNoallocAnnotation(c) && !attached[c] {
						bad = append(bad, Finding{Rule: "detlint", Pos: mod.Fset.Position(c.Pos()),
							Msg: fmt.Sprintf("//%s is not attached to a function declaration; put it in the doc comment directly above func", noallocDirective)})
					}
				}
			}
		}
	}
	mod.noalloc = noalloc
	return bad
}

// isNoallocAnnotation reports whether a comment carries the annotation.
// Trailing prose after the directive word is allowed.
func isNoallocAnnotation(c *ast.Comment) bool {
	text := strings.TrimPrefix(c.Text, "//")
	return text == noallocDirective || strings.HasPrefix(text, noallocDirective+" ")
}
