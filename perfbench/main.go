// Command perfbench is the repository benchmark. It runs one workload —
// a full-preset figure sweep (fig3, backfill) or a serial mix of the
// replay, constant-backlog and faulted open-system drivers (drivers) — as
// a closed batch job, checks the workload's outputs, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures of untraced runs
// repeated for -seconds (medians per run). With -trace 1 the same
// untraced runs are followed by one traced run — an obs.Observer on every
// simulation (which makes the sweeps serial) and a CPU profile of the
// process — and the metrics are the per-layer figures of both.
//
// Build and run it from the repository root through run.sh, which keeps
// every build artifact under .bench_build:
//
//	bash perfbench/run.sh --workload fig3 --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workDir holds the benchmark's scratch files (sweep CSVs, the CPU
// profile), relative to the directory the benchmark runs in.
var workDir = filepath.Join(".bench_build", "work")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig3, backfill or drivers")
	seed := fs.Uint64("seed", 1, "workload seed (trace cache, dastrace.Generate, replications)")
	seconds := fs.Int("seconds", 25, "how long to repeat the untraced workload, in seconds (at least one run)")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from an extra traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want fig3, backfill or drivers)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := measure(w, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec declares one metric the benchmark emits: its unit and which
// direction is better. BENCHMARK.json lists the same metrics (a self-test
// keeps the two in step).
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user regenerating a figure sees, all from
// untraced runs.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"ops_ok_frac", "frac", "higher"},
}

// perLayer are the per-layer metrics. The layer each belongs to is the
// name's prefix; README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricSpec{
	{"experiments.points_run", "count", "lower"},
	{"experiments.points_saturated", "count", "lower"},
	{"experiments.points_wasted", "count", "lower"},
	{"experiments.straggler_tail_s", "s", "lower"},
	{"workpool.busy_frac", "frac", "higher"},
	{"experiments.point_p50_s", "s", "lower"},
	{"experiments.point_p95_s", "s", "lower"},
	{"experiments.point_n", "count", "lower"},
	{"core.jobs_simulated", "count", "lower"},
	{"core.truncated_jobs", "count", "higher"},
	{"core.saturation_cutoffs", "count", "higher"},
	{"core.ns_per_event", "ns", "lower"},
	{"core.replay_s", "s", "lower"},
	{"core.backlog_s", "s", "lower"},
	{"core.open_faulted_s", "s", "lower"},
	{"sim.self_cpu_share", "frac", "lower"},
	{"cluster.self_cpu_share", "frac", "lower"},
	{"policies.self_cpu_share", "frac", "lower"},
	{"queues.self_cpu_share", "frac", "lower"},
	{"stats.self_cpu_share", "frac", "lower"},
	{"workload.self_cpu_share", "frac", "lower"},
	{"dist.self_cpu_share", "frac", "lower"},
	{"rng.self_cpu_share", "frac", "lower"},
	{"core.self_cpu_share", "frac", "lower"},
	{"obs.self_cpu_share", "frac", "lower"},
	{"dectrace.self_cpu_share", "frac", "lower"},
	{"faults.self_cpu_share", "frac", "lower"},
	{"runtime.gc_cpu_share", "frac", "lower"},
	{"dist.fingerprint_cpu_share", "frac", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.scheduled", "count", "lower"},
	{"sim.pool_hit_rate", "frac", "higher"},
	{"policies.passes", "count", "lower"},
	{"policies.passes_skipped", "count", "higher"},
	{"policies.passes_repaired", "count", "higher"},
	{"policies.skip_ratio", "frac", "higher"},
	{"policies.head_misses", "count", "lower"},
	{"policies.backfill_attempts", "count", "lower"},
	{"policies.backfill_yield", "frac", "higher"},
	{"policies.lookahead_truncated", "count", "lower"},
	{"queues.enables", "count", "lower"},
	{"queues.disables", "count", "lower"},
	{"queues.depth_max", "count", "lower"},
	{"dectrace.decisions", "count", "lower"},
	{"faults.kills", "count", "lower"},
	{"faults.resubmits", "count", "lower"},
	{"obs.trace_bytes", "B", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"trace.overhead_cpu_s", "s", "lower"},
}

// profiledPackages are the packages whose flat (self) CPU share the
// traced run reports as <pkg>.self_cpu_share.
var profiledPackages = []string{
	"sim", "cluster", "policies", "queues", "stats", "workload",
	"dist", "rng", "core", "obs", "dectrace", "faults",
}

// fill copies the named values into a report's metric map, in the order
// and with the units of specs; a spec with no value is an error, so the
// emitted set always matches the declared one.
func fill(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(vals) != len(specs) {
		var extra []string
		for k := range vals {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}
