package detlint

import (
	"go/ast"
)

// HandleFlow is the interprocedural closure of eventretain and
// jobretain: it flags a call that passes a pooled sim.Event or an
// arena-owned workload.Job to a function that retains it — directly, or
// through further forwarding — so the leak is reported where the handle
// leaves the caller's control, not only at the store buried in a helper.
// A store site suppressed with //detlint:ignore (the faultState registry
// with its invalidation discipline, for example) is documented-safe and
// does not make its function's parameter count as retaining.
var HandleFlow = &Analyzer{
	Name:  "handleflow",
	Doc:   "no passing pooled sim.Event / arena workload.Job handles to functions that retain them",
	Run:   runHandleFlow,
	facts: true,
}

// eventSpec configures the escape engine for pooled sim.Event handles:
// any persistent store is a sink, matching eventretain.
func eventSpec(mod *Module) *handleSpec {
	check := newContainsChecker(mod.Path+"/internal/sim", "Event")
	return &handleSpec{
		rule:       HandleFlow.Name,
		what:       "pooled sim.Event handle",
		advice:     eventRetainAdvice,
		owner:      "internal/sim",
		fields:     true,
		elements:   true,
		channels:   true,
		globals:    true,
		suppressAs: []string{EventRetain.Name},
		track:      check.contains,
	}
}

// jobSpec configures the engine for arena-owned workload.Job handles.
// Fields and elements are legitimate (run-scoped queues and registries
// die with the run, matching jobretain); the hazards are state that
// survives the run — globals and cross-goroutine channels.
func jobSpec(mod *Module) *handleSpec {
	check := newContainsChecker(mod.Path+"/internal/workload", "Job")
	return &handleSpec{
		rule:       HandleFlow.Name,
		what:       "arena-owned workload.Job handle",
		advice:     jobRetainAdvice,
		owner:      "internal/workload",
		channels:   true,
		globals:    true,
		suppressAs: []string{JobRetain.Name},
		track:      check.contains,
	}
}

func runHandleFlow(p *Pass) {
	facts := p.Module.facts
	reportHandleCalls(p, facts.event)
	reportHandleCalls(p, facts.job)
}

// reportHandleCalls flags calls in the target package whose handle-typed
// arguments reach an escaping parameter.
func reportHandleCalls(p *Pass, ef *escapeFacts) {
	if p.Pkg.Rel == ef.spec.owner {
		return
	}
	cg := p.Module.facts.cg
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range cg.resolveCall(info, call) {
				esc := ef.escapes[callee]
				if len(esc) == 0 {
					continue
				}
				for ai, arg := range call.Args {
					t := info.TypeOf(arg)
					if t == nil || !ef.spec.track(t) {
						continue
					}
					pi, ok := calleeParamIndex(callee, ai)
					if !ok {
						continue
					}
					pe := esc[pi]
					if pe == nil {
						continue
					}
					p.Reportf(arg.Pos(), "passing a %s to %s, which %s at %s; %s",
						ef.spec.what, cg.qualifiedName(callee, p.Pkg), pe.why, shortPos(pe.at),
						ef.spec.advice)
				}
			}
			return true
		})
	}
}
