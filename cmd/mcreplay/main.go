// Command mcreplay replays a job trace (Standard Workload Format, or the
// built-in synthetic DAS log) through a scheduling policy and reports the
// resulting response times and utilization.
//
// Examples:
//
//	mcreplay -policy LS -limit 16                 # synthetic DAS log
//	mcreplay -policy GS -limit 32 -load 2 das.swf # compress gaps 2x
//	mcreplay -policy SC -clusters 128 das.swf     # single-cluster replay
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"coalloc/internal/cliutil"
	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

func main() {
	policy := flag.String("policy", "LS", cliutil.PolicyHelp)
	limit := flag.Int("limit", 16, "job-component-size limit")
	load := flag.Float64("load", 1, "load factor: >1 compresses interarrival gaps")
	ext := flag.Float64("ext", workload.DefaultExtensionFactor, "extension factor for multi-component jobs")
	seed := flag.Uint64("seed", 1, "routing seed")
	unbalanced := flag.Bool("unbalanced", false, "unbalanced local-queue routing")
	clusters := flag.String("clusters", "", cliutil.ClustersHelp)
	jobs := flag.Int("jobs", 0, "replay only the first N jobs (0 = all)")
	fit := flag.String("fit", "WF", "placement rule: WF, FF or BF")
	schedule := flag.String("schedule", "", "write the per-job schedule (Gantt CSV) to this file")
	metrics := flag.Bool("metrics", false, "print a metrics summary block after the results")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			fatalf("%v", err)
		}
	}

	var recs []dastrace.Record
	if flag.NArg() == 0 {
		recs = dastrace.Default()
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		recs, err = dastrace.ReadSWF(f)
		f.Close() //detlint:ignore closecheck read-only handle; ReadSWF's error is the one that matters
		if err != nil {
			fatalf("%v", err)
		}
	}
	if *jobs > 0 && *jobs < len(recs) {
		recs = recs[:*jobs]
	}

	clusterSizes := cliutil.Clusters("mcreplay", *policy, *clusters)

	var fitRule cluster.Fit
	switch strings.ToUpper(*fit) {
	case "WF":
		fitRule = cluster.WorstFit
	case "FF":
		fitRule = cluster.FirstFit
	case "BF":
		fitRule = cluster.BestFit
	default:
		fatalf("unknown fit rule %q", *fit)
	}

	var weights []float64
	if *unbalanced {
		weights = core.Unbalanced(len(clusterSizes))
	}

	cfg := core.ReplayConfig{
		ClusterSizes:    clusterSizes,
		Records:         recs,
		Policy:          *policy,
		Fit:             fitRule,
		ComponentLimit:  *limit,
		ExtensionFactor: *ext,
		LoadFactor:      *load,
		QueueWeights:    weights,
		Seed:            *seed,
	}
	var schedFile *os.File
	if *schedule != "" {
		f, err := os.Create(*schedule)
		if err != nil {
			fatalf("%v", err)
		}
		schedFile = f
		cfg.ScheduleWriter = f
	}
	var observer *obs.Observer
	var traceFile *os.File
	if *metrics || *tracePath != "" {
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatalf("%v", err)
			}
			traceFile = f
			observer = obs.New(f)
		} else {
			observer = obs.New(nil)
		}
		cfg.Observer = observer
	}
	res, err := core.Replay(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	// Close errors are write errors for buffered data; unchecked, a full
	// disk would silently truncate the schedule or trace.
	if schedFile != nil {
		if err := schedFile.Close(); err != nil {
			fatalf("writing schedule: %v", err)
		}
	}
	if err := observer.Close(); err != nil {
		fatalf("writing trace: %v", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatalf("writing trace: %v", err)
		}
	}

	fmt.Printf("policy            %s\n", res.Policy)
	fmt.Printf("jobs replayed     %d\n", res.Jobs)
	fmt.Printf("makespan          %.0f s (%.1f days)\n", res.Makespan, res.Makespan/86400)
	fmt.Printf("gross utilization %.4f\n", res.GrossUtilization)
	fmt.Printf("net utilization   %.4f\n", res.NetUtilization)
	fmt.Printf("mean response     %.1f s\n", res.MeanResponse)
	fmt.Printf("median response   %.1f s\n", res.MedianResponse)
	fmt.Printf("p95 response      %.1f s\n", res.P95Response)
	fmt.Printf("mean slowdown     %.2f\n", res.MeanSlowdown)
	fmt.Printf("max queue         %d\n", res.MaxQueue)
	if *metrics {
		fmt.Println()
		fmt.Println("--- metrics ---")
		if err := observer.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcreplay: "+format+"\n", args...)
	os.Exit(1)
}
