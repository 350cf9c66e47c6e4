package detlint

// moduleFacts bundles the interprocedural dataflow handleflow runs on:
// the whole-module call graph and the escape summaries for the two
// handle families. Run builds it once, single-threaded, before the
// parallel per-package analysis phase; afterwards it is immutable.
type moduleFacts struct {
	cg    *callGraph
	event *escapeFacts
	job   *escapeFacts
}

// buildFacts constructs the call graph and the escape summaries. The
// escape engine honors existing //detlint:ignore directives at store
// sites (crediting them for the staleness pass), so m.sup must be
// populated first.
func (m *Module) buildFacts() {
	cg := buildCallGraph(m)
	m.facts = &moduleFacts{
		cg:    cg,
		event: buildEscapeFacts(cg, eventSpec(m)),
		job:   buildEscapeFacts(cg, jobSpec(m)),
	}
}
