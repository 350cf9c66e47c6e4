package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// This file is the interprocedural parameter-escape engine behind
// handleflow. For every module function it computes, per parameter of a
// tracked family (pooled sim.Event, arena-owned workload.Job), whether
// calling the function can store that argument somewhere that outlives
// the call — directly (a field, global, element, channel send, append,
// composite literal) or transitively (the parameter is forwarded to
// another module function whose parameter escapes). Spreading a tracked
// slice (`f(xs...)`, `append(dst, xs...)`) counts like passing it: the
// handles inside are what is retained. The summaries are propagated to a
// fixed point over the call graph, and each escaping parameter keeps a
// witness (the store site, or the forwarding hop) for the finding
// message.
//
// A store site that carries a //detlint:ignore directive for the
// family's rules is a documented-safe site: it does not mark the
// parameter escaping, and the engine credits the directive so the
// staleness pass does not report it.

// handleSpec configures the engine for one tracked-value family.
type handleSpec struct {
	rule   string // rule reported at call sites (and honored at stores)
	what   string // human name of the tracked value, for messages
	advice string // appended to findings
	owner  string // module-relative package exempt ("" for none): it implements the pool

	// Sink selection. A disabled sink kind is a legitimate store for
	// this family (jobs may sit in run-scoped fields, for example).
	fields, elements, channels, globals bool

	// suppressAs lists additional rules whose directives sanction a
	// store site (the intraprocedural analyzers covering direct stores).
	suppressAs []string

	// track reports whether a parameter of this type carries the value.
	track func(t types.Type) bool
}

// paramEscape is the witness for one escaping parameter.
type paramEscape struct {
	why string
	at  token.Position
	via *types.Func // forwarding hop, nil for a direct store
}

// escapeFacts holds the finished summaries: escapes[fn][i] is non-nil
// when fn's i-th parameter (receiver excluded) escapes.
type escapeFacts struct {
	spec    *handleSpec
	escapes map[*types.Func]map[int]*paramEscape
}

// forward is one parameter-forwarding edge discovered during the scan.
type forward struct {
	caller      *funcInfo
	callerParam int
	callee      *types.Func
	calleeParam int
	pos         token.Pos
}

// buildEscapeFacts scans every module function and propagates escapes to
// a fixed point. Iteration follows the call graph's deterministic
// declaration order, so the recorded witnesses are stable.
func buildEscapeFacts(cg *callGraph, spec *handleSpec) *escapeFacts {
	ef := &escapeFacts{spec: spec, escapes: make(map[*types.Func]map[int]*paramEscape)}
	var edges []forward
	for _, fi := range cg.funcs {
		if spec.owner != "" && fi.pkg.Rel == spec.owner {
			continue
		}
		params := trackedParams(spec, fi)
		if len(params) == 0 {
			continue
		}
		ef.scanBody(cg, fi, params, &edges)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if ef.escapes[e.callee][e.calleeParam] == nil ||
				ef.escapes[e.caller.fn][e.callerParam] != nil {
				continue
			}
			pos := cg.mod.Fset.Position(e.pos)
			if cg.mod.sup.sanctions(pos, spec.rule) {
				continue
			}
			ef.record(e.caller.fn, e.callerParam, &paramEscape{
				why: fmt.Sprintf("forwarded to %s", cg.qualifiedName(e.callee, e.caller.pkg)),
				at:  pos,
				via: e.callee,
			})
			changed = true
		}
	}
	return ef
}

// trackedParams maps each tracked parameter object of fi to its index
// (receiver excluded; blank and unnamed parameters cannot be stored).
func trackedParams(spec *handleSpec, fi *funcInfo) map[types.Object]int {
	if fi.decl.Type.Params == nil {
		return nil
	}
	var m map[types.Object]int
	i := 0
	for _, field := range fi.decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			obj := fi.pkg.Info.Defs[name]
			if name.Name != "_" && obj != nil && spec.track(obj.Type()) {
				if m == nil {
					m = make(map[types.Object]int)
				}
				m[obj] = i
			}
			i++
		}
	}
	return m
}

// scanBody finds direct sinks of fi's tracked parameters and records
// forwarding edges for calls that pass them on.
func (ef *escapeFacts) scanBody(cg *callGraph, fi *funcInfo, params map[types.Object]int, edges *[]forward) {
	spec := ef.spec
	info := fi.pkg.Info
	paramIndex := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		obj := info.Uses[id]
		if obj == nil {
			return 0, false
		}
		i, ok := params[obj]
		return i, ok
	}
	sink := func(pi int, pos token.Pos, why string) {
		if ef.escapes[fi.fn][pi] != nil {
			return
		}
		p := cg.mod.Fset.Position(pos)
		rules := append([]string{spec.rule}, spec.suppressAs...)
		if cg.mod.sup.sanctions(p, rules...) {
			return
		}
		ef.record(fi.fn, pi, &paramEscape{why: why, at: p})
	}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				pi, ok := paramIndex(rhs)
				if !ok {
					continue
				}
				if why := classifyStore(spec, info, n.Lhs[i]); why != "" {
					sink(pi, n.Lhs[i].Pos(), why)
				}
			}
		case *ast.SendStmt:
			if !spec.channels {
				return true
			}
			if pi, ok := paramIndex(n.Value); ok {
				sink(pi, n.Pos(), "sends it over a channel")
			}
		case *ast.CompositeLit:
			if !spec.elements {
				return true
			}
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if pi, ok := paramIndex(v); ok {
					sink(pi, v.Pos(), "stores it in a composite literal")
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					if !spec.elements {
						return true
					}
					for _, a := range n.Args[1:] {
						if pi, ok := paramIndex(a); ok {
							sink(pi, a.Pos(), "appends it to a slice")
						}
					}
					return true
				}
			}
			callees := cg.resolveCall(info, n)
			if len(callees) == 0 {
				return true
			}
			for ai, a := range n.Args {
				pi, ok := paramIndex(a)
				if !ok {
					continue
				}
				for _, callee := range callees {
					cp, ok := calleeParamIndex(callee, ai)
					if !ok {
						continue
					}
					*edges = append(*edges, forward{
						caller: fi, callerParam: pi,
						callee: callee, calleeParam: cp,
						pos: a.Pos(),
					})
				}
			}
		}
		return true
	})
}

// calleeParamIndex maps argument position ai to the callee's parameter
// index, folding variadic tails onto the last parameter.
func calleeParamIndex(callee *types.Func, ai int) (int, bool) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	np := sig.Params().Len()
	if ai < np {
		return ai, true
	}
	if sig.Variadic() && np > 0 {
		return np - 1, true
	}
	return 0, false
}

// classifyStore describes the LHS of an assignment as a sink for spec,
// or returns "" when this store kind is permitted.
func classifyStore(spec *handleSpec, info *types.Info, lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if spec.globals && isPackageLevelVar(info.Uses[lhs]) {
			return "stores it in a package-level variable"
		}
	case *ast.SelectorExpr:
		obj := info.Uses[lhs.Sel]
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.IsField() {
			if spec.fields {
				return "stores it in a struct field"
			}
			return ""
		}
		if spec.globals && isPackageLevelVar(obj) {
			return "stores it in a package-level variable"
		}
	case *ast.IndexExpr:
		if spec.elements {
			return "stores it in a slice, array, or map element"
		}
	}
	return ""
}

func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func (ef *escapeFacts) record(fn *types.Func, pi int, pe *paramEscape) {
	m := ef.escapes[fn]
	if m == nil {
		m = make(map[int]*paramEscape)
		ef.escapes[fn] = m
	}
	m[pi] = pe
}

// containsChecker decides whether a type transitively contains the named
// type (through pointers, slices, arrays, maps, channels, and structs).
type containsChecker struct {
	pkgPath string
	name    string
	memo    map[types.Type]bool
}

func newContainsChecker(pkgPath, name string) *containsChecker {
	return &containsChecker{pkgPath: pkgPath, name: name, memo: make(map[types.Type]bool)}
}

func (c *containsChecker) contains(t types.Type) bool {
	if v, ok := c.memo[t]; ok {
		return v
	}
	c.memo[t] = false // terminate on recursive types
	v := c.containsUncached(t)
	c.memo[t] = v
	return v
}

func (c *containsChecker) containsUncached(t types.Type) bool {
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Name() == c.name && obj.Pkg() != nil && obj.Pkg().Path() == c.pkgPath {
			return true
		}
		return c.contains(t.Underlying())
	case *types.Alias:
		return c.contains(types.Unalias(t))
	case *types.Pointer:
		return c.contains(t.Elem())
	case *types.Slice:
		return c.contains(t.Elem())
	case *types.Array:
		return c.contains(t.Elem())
	case *types.Map:
		return c.contains(t.Key()) || c.contains(t.Elem())
	case *types.Chan:
		return c.contains(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if c.contains(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// shortPos renders a store-site position compactly for messages.
func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
