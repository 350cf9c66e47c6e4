// Package cliutil centralizes the flag validation shared by the commands,
// so mcsim, mcexp and mcreplay reject the same bad inputs with the same
// wording and the same exit status. Historically mcsim exited 1 via its
// fatalf helper while mcexp exited 2 via inline fprintf checks; flag
// errors now uniformly use status 2 (the conventional usage-error
// status), leaving status 1 for runtime failures.
package cliutil

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"coalloc/internal/core"
	"coalloc/internal/faults"
)

// exit is swapped out by tests; the commands always exit the process.
var exit = os.Exit

// Failf prints "prog: message" to stderr and exits with status 2.
func Failf(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
	exit(2)
}

// PolicyHelp is the -policy flag help of the commands that run one policy.
const PolicyHelp = "scheduling policy: GS, GS-EASY, GS-CONS, GS-SPF, LS, LS-sorted, LP, SC, SC-EASY or SC-CONS"

// ClustersHelp is the -clusters flag help, matching Clusters.
const ClustersHelp = "comma-separated cluster sizes (default 32,32,32,32; SC, SC-EASY and SC-CONS: 128)"

// Clusters resolves the -clusters flag: the comma-separated cluster
// sizes when given, else the paper's multicluster {32, 32, 32, 32} — or
// one 128-processor cluster for a single-cluster policy (core.SingleCluster).
// A single cluster never splits a job, so those runs submit total
// requests whatever the component-size limit.
func Clusters(prog, policy, value string) []int {
	if value == "" {
		if core.SingleCluster(policy) {
			return []int{128}
		}
		return []int{32, 32, 32, 32}
	}
	var sizes []int
	for _, f := range strings.Split(value, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			Failf(prog, "bad -clusters value %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// CheckLookahead validates the -lookahead flag: 0 means "use the
// default" and is always accepted, explicit values must be >= 1, and an
// explicit value is rejected when nothing in the run uses conservative
// backfilling — a silently ignored bound reads as a measurement of a
// configuration that never ran. scope names what would have to be true
// for the flag to apply (e.g. "policy GS-CONS or SC-CONS").
func CheckLookahead(prog string, v int, applies bool, scope string) {
	if v == 0 {
		return
	}
	if v < 1 {
		Failf(prog, "-lookahead %d must be >= 1", v)
	}
	if !applies {
		Failf(prog, "-lookahead only applies to conservative backfilling; %s", scope)
	}
}

// CheckDecisions rejects -decisions when nothing in the run records
// scheduling decisions, for the same reason CheckLookahead rejects a
// dangling -lookahead. scope names what would have to be true for the
// flag to apply.
func CheckDecisions(prog string, on, applies bool, scope string) {
	if on && !applies {
		Failf(prog, "-decisions records per-decision placement traces of open-system simulations; %s", scope)
	}
}

// CheckRetryWindow validates the -retry-base/-retry-cap pair against the
// same defaulting the fault injector applies (0 means 10 s base, 600 s
// cap): after normalization the cap must be at least the base. Checking
// the normalized pair at the flag layer catches windows the raw-value
// check misses — e.g. an explicit base of 700 s with the default 600 s
// cap — before a sweep spends minutes to die on the same error inside
// the first run.
func CheckRetryWindow(prog string, base, cap float64) {
	for _, f := range []struct {
		name  string
		value float64
	}{{"-retry-base", base}, {"-retry-cap", cap}} {
		if f.value < 0 || math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			Failf(prog, "%s %g must be non-negative and finite", f.name, f.value)
		}
	}
	s := faults.Spec{RetryBase: base, RetryCap: cap}.Normalized()
	if s.RetryCap < s.RetryBase {
		Failf(prog, "retry window [%g s, %g s] is empty: the cap must be at least the base (0 means the %g s default)",
			s.RetryBase, s.RetryCap, 600.0)
	}
}
