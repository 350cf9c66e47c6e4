// Interprocedural fixtures: pooled handles leaked through helper
// functions (handleflow). The direct stores inside the helpers are the
// syntactic findings; the calls handing the value over are the
// interprocedural ones.
package policies

import (
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// registry retains event handles; its add method is where the handle
// escapes, and every call passing a handle in is a handleflow finding.
type registry struct {
	evs []sim.Event // want eventretain
}

func (r *registry) add(ev sim.Event) {
	r.evs = append(r.evs, ev) // want eventretain
}

// stash forwards its handle to the retaining add; the forwarding call is
// itself a handleflow site, and stash's parameter escapes transitively.
func stash(r *registry, ev sim.Event) {
	r.add(ev) // want handleflow
}

func leakHandles(e *sim.Engine) {
	r := &registry{}
	ev := e.After(1, nil)
	r.add(ev)    // want handleflow
	stash(r, ev) // want handleflow
}

var archived *workload.Job // want jobretain

// record parks the job in a package-level variable — the store the
// jobretain sink model forbids — so passing a job to it is flagged.
func record(j *workload.Job) {
	archived = j
}

func leakViaRecord(a *workload.Arena) {
	record(a.Job()) // want handleflow
	_ = leakHandles
}
