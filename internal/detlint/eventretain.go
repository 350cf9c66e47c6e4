package detlint

import (
	"go/ast"
	"go/types"
)

// EventRetain flags code that stores sim.Event handles where they can
// outlive the event. The kernel recycles event slots through a
// generation-checked pool: the moment an event fires or is cancelled its
// slot is reused, and a retained handle silently goes stale (Cancel and
// Pending report false for the wrong reason, and a colliding generation
// would act on someone else's event). Handles are meant to be used
// immediately or not kept at all; durable state belongs in (time,
// payload) form.
//
// Flagged shapes, everywhere outside internal/sim and tests:
//
//   - struct fields whose type contains sim.Event
//   - package-level variables whose type contains sim.Event
//   - append to a slice whose element type contains sim.Event
//   - assignment into an index expression (slice, array, or map element)
//     whose type contains sim.Event
//   - composite literals of slice, array, or map types whose element or
//     key type contains sim.Event
var EventRetain = &Analyzer{
	Name: "eventretain",
	Doc:  "no storing pooled sim.Event handles in struct fields, slices, maps, or globals",
	Run:  runEventRetain,
}

const eventRetainAdvice = "pooled handles go stale once the event fires or is cancelled; act on the handle immediately or store (time, payload) instead"

func runEventRetain(pass *Pass) {
	simPath := pass.Module.Path + "/internal/sim"
	if pass.Pkg.ImportPath == simPath {
		return
	}
	c := newContainsChecker(simPath, "Event")
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// Package-level variables.
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // a blank var discards the value
					}
					obj := info.Defs[name]
					if obj != nil && c.contains(obj.Type()) {
						pass.Reportf(name.Pos(),
							"package-level variable %s retains a sim.Event handle; %s", name.Name, eventRetainAdvice)
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					t := info.TypeOf(field.Type)
					if t != nil && c.contains(t) {
						pass.Reportf(field.Pos(),
							"struct field retains a sim.Event handle; %s", eventRetainAdvice)
					}
				}
			case *ast.CallExpr:
				fn, ok := n.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					return true
				}
				if _, isBuiltin := info.ObjectOf(fn).(*types.Builtin); !isBuiltin {
					return true
				}
				if t := info.TypeOf(n); t != nil && c.contains(t) {
					pass.Reportf(n.Pos(),
						"append retains sim.Event handles in a slice; %s", eventRetainAdvice)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					ix, ok := lhs.(*ast.IndexExpr)
					if !ok {
						continue
					}
					if t := info.TypeOf(ix); t != nil && c.contains(t) {
						pass.Reportf(ix.Pos(),
							"element assignment retains a sim.Event handle; %s", eventRetainAdvice)
					}
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if t == nil {
					return true
				}
				switch u := t.Underlying().(type) {
				case *types.Slice:
					if c.contains(u.Elem()) {
						pass.Reportf(n.Pos(), "slice literal retains sim.Event handles; %s", eventRetainAdvice)
					}
				case *types.Array:
					if c.contains(u.Elem()) {
						pass.Reportf(n.Pos(), "array literal retains sim.Event handles; %s", eventRetainAdvice)
					}
				case *types.Map:
					if c.contains(u.Elem()) || c.contains(u.Key()) {
						pass.Reportf(n.Pos(), "map literal retains sim.Event handles; %s", eventRetainAdvice)
					}
				}
			}
			return true
		})
	}
}
