package detlint

import (
	"go/ast"
	"go/types"
)

// JobRetain flags code that stores arena-owned *workload.Job handles where
// they can outlive the run that allocated them. Jobs are block-allocated
// from a per-run workload.Arena; at the end of the run the arena is reset
// and recycled, so a retained handle silently aliases a different
// replication's job. Results and summaries must copy the scalar fields
// they need instead of keeping the handle.
//
// Flagged shapes, everywhere outside internal/workload and tests:
//
//   - package-level variables whose type contains workload.Job (directly
//     or through pointers, slices, arrays, maps, or structs)
//   - channel types — anywhere — whose element type contains workload.Job:
//     a channel hands the job to another goroutine, which is never inside
//     the sending run's scope
//
// Struct fields are deliberately NOT flagged: queues, policies and the
// simulation itself legitimately hold jobs for the duration of the run,
// and that run-scoped state dies with the run. The hazard is state that
// survives it — globals and cross-goroutine channels.
var JobRetain = &Analyzer{
	Name: "jobretain",
	Doc:  "no storing arena-owned workload.Job handles in globals or sending them over channels",
	Run:  runJobRetain,
}

const jobRetainAdvice = "arena-owned jobs are recycled when their run resets the arena; copy the fields you need instead of retaining the handle"

func runJobRetain(pass *Pass) {
	wlPath := pass.Module.Path + "/internal/workload"
	if pass.Pkg.ImportPath == wlPath {
		return
	}
	c := newContainsChecker(wlPath, "Job")
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		// Package-level variables. A channel-typed global is skipped
		// here: it is reported once, below, at the channel type itself.
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
					if obj == nil {
						continue
					}
					if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan && c.contains(obj.Type()) {
						pass.Reportf(name.Pos(),
							"package-level variable %s retains a workload.Job handle; %s", name.Name, jobRetainAdvice)
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ct, ok := n.(*ast.ChanType)
			if !ok {
				return true
			}
			t := info.TypeOf(ct)
			ch, ok := t.(*types.Chan)
			if !ok {
				return true
			}
			if c.contains(ch.Elem()) {
				pass.Reportf(ct.Pos(),
					"channel carries workload.Job handles across run scope; %s", jobRetainAdvice)
			}
			return true
		})
	}
}
