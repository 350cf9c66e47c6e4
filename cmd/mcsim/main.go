// Command mcsim runs one multicluster co-allocation simulation with
// explicit parameters and prints its metrics.
//
// Examples:
//
//	mcsim -policy LS -limit 16 -util 0.5
//	mcsim -policy SC -util 0.6 -jobs 50000
//	mcsim -policy LP -limit 32 -unbalanced -util 0.45
//	mcsim -policy GS -limit 24 -backlog    # maximal-utilization run
//	mcsim -policy LS -util 0.4 -mtbf 2000  # with processor failures
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"coalloc/internal/cliutil"
	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dectrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

func main() {
	policy := flag.String("policy", "LS", cliutil.PolicyHelp)
	limit := flag.Int("limit", 16, "job-component-size limit (16, 24 or 32 in the paper)")
	util := flag.Float64("util", 0.5, "offered gross utilization")
	jobs := flag.Int("jobs", 30000, "measured jobs")
	warmup := flag.Int("warmup", 3000, "warmup jobs (0 = no warmup, measure from time zero)")
	seed := flag.Uint64("seed", 1, "random seed")
	reps := flag.Int("reps", 1, "replications")
	cap64 := flag.Bool("cap64", false, "use the DAS-s-64 size distribution (total sizes cut at 64)")
	unbalanced := flag.Bool("unbalanced", false, "route 40%/20%/20%/20% of jobs to the local queues")
	ext := flag.Float64("ext", workload.DefaultExtensionFactor, "wide-area extension factor for multi-component jobs")
	fit := flag.String("fit", "WF", "placement rule: WF, FF or BF")
	lookahead := flag.Int("lookahead", 0, "conservative-backfilling reservation bound (0 = default 32; must be >= 1)")
	clusters := flag.String("clusters", "", cliutil.ClustersHelp)
	backlog := flag.Bool("backlog", false, "run a constant-backlog (maximal utilization) simulation instead")
	mtbf := flag.Float64("mtbf", 0, "per-cluster mean time between processor failures in s (0 = no failures)")
	mttr := flag.Float64("mttr", 900, "mean time to repair a failed processor in s")
	retryBase := flag.Float64("retry-base", 10, "base resubmit backoff for killed jobs in s")
	retryCap := flag.Float64("retry-cap", 600, "resubmit backoff cap in s")
	ckptInterval := flag.Float64("checkpoint-interval", 0, "checkpoint interval for killed jobs in s (0 = no checkpointing; requires -mtbf)")
	satCutoff := flag.Bool("saturation-cutoff", false, "stop a saturated run at the first provable divergence checkpoint instead of the full horizon (non-saturated runs are unaffected)")
	metrics := flag.Bool("metrics", false, "print a metrics summary block after the results")
	decisions := flag.Bool("decisions", false, "record every scheduling decision with its unchosen alternatives and counterfactual regret (adds decision records to -trace and regret lines to the results)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		if err := obs.StartPprof(*pprofAddr); err != nil {
			fatalf("%v", err)
		}
	}

	der := workload.DeriveDefault()
	sizes := der.Sizes128
	if *cap64 {
		sizes = der.Sizes64
	}

	clusterSizes := cliutil.Clusters("mcsim", *policy, *clusters)
	spec := workload.Spec{
		Sizes:           sizes,
		Service:         der.Service,
		ComponentLimit:  *limit,
		Clusters:        len(clusterSizes),
		ExtensionFactor: *ext,
	}

	var fitRule cluster.Fit
	switch strings.ToUpper(*fit) {
	case "WF":
		fitRule = cluster.WorstFit
	case "FF":
		fitRule = cluster.FirstFit
	case "BF":
		fitRule = cluster.BestFit
	default:
		fatalf("unknown fit rule %q (want WF, FF or BF)", *fit)
	}

	var weights []float64
	if *unbalanced {
		weights = core.Unbalanced(len(clusterSizes))
	}

	conservative := *policy == "GS-CONS" || *policy == "SC-CONS"
	cliutil.CheckLookahead("mcsim", *lookahead, conservative,
		fmt.Sprintf("policy %s takes no reservation bound (want GS-CONS or SC-CONS)", *policy))
	cliutil.CheckDecisions("mcsim", *decisions, !*backlog,
		"constant-backlog runs measure capacity, not per-job scheduling")
	cliutil.CheckRetryWindow("mcsim", *retryBase, *retryCap)

	if *ckptInterval != 0 && *mtbf <= 0 {
		fatalf("-checkpoint-interval %g without -mtbf: checkpointing only matters when failures can kill jobs", *ckptInterval)
	}
	if *backlog {
		if *mtbf > 0 {
			fatalf("-mtbf cannot be combined with -backlog (constant-backlog runs measure reliable-hardware capacity)")
		}
		// These outputs only exist for open-system runs; accepting the
		// flags here would silently drop them.
		if *metrics || *tracePath != "" {
			cliutil.Failf("mcsim", "-metrics and -trace cannot be combined with -backlog (constant-backlog runs have no observer)")
		}
		res, err := core.RunBacklog(core.BacklogConfig{
			ClusterSizes: clusterSizes,
			Spec:         spec,
			Policy:       *policy,
			Fit:          fitRule,
			QueueWeights: weights,
			Seed:         *seed,
			Lookahead:    *lookahead,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("policy              %s (constant backlog)\n", res.Policy)
		fmt.Printf("max gross util      %.4f\n", res.MaxGrossUtilization)
		fmt.Printf("max net util        %.4f\n", res.MaxNetUtilization)
		fmt.Printf("throughput          %.5f jobs/s\n", res.Throughput)
		fmt.Printf("jobs measured       %d\n", res.Jobs)
		return
	}

	var capacity int
	for _, s := range clusterSizes {
		capacity += s
	}
	cfg := core.Config{
		ClusterSizes: clusterSizes,
		Spec:         spec,
		Policy:       *policy,
		Fit:          fitRule,
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(*util, capacity),
		QueueWeights: weights,
		WarmupJobs:   *warmup,
		NoWarmup:     *warmup == 0,
		MeasureJobs:  *jobs,
		Seed:         *seed,
		Lookahead:    *lookahead,

		SaturationCutoff: *satCutoff,
	}
	if *decisions {
		cfg.Decisions = &dectrace.Options{}
	}
	if *mtbf > 0 {
		cfg.Faults = &faults.Spec{
			MTBF:               *mtbf,
			MTTR:               *mttr,
			RetryBase:          *retryBase,
			RetryCap:           *retryCap,
			CheckpointInterval: *ckptInterval,
		}
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
	res, err := core.RunReplications(cfg, *reps)
	if err != nil {
		fatalf("%v", err)
	}
	// Close errors are write errors for buffered data; unchecked, a full
	// disk would silently truncate the trace.
	if err := observer.Close(); err != nil {
		fatalf("writing trace: %v", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatalf("writing trace: %v", err)
		}
	}
	fmt.Printf("policy              %s\n", res.Policy)
	fmt.Printf("offered gross util  %.4f\n", res.OfferedGross)
	fmt.Printf("measured gross util %.4f\n", res.GrossUtilization)
	fmt.Printf("measured net util   %.4f\n", res.NetUtilization)
	fmt.Printf("mean response       %.1f s (95%% +- %.1f)\n", res.MeanResponse, res.RespHalfWidth)
	fmt.Printf("  local queues      %s\n", fmtNaN(res.MeanResponseLocal))
	fmt.Printf("  global queue      %s\n", fmtNaN(res.MeanResponseGlobal))
	fmt.Printf("median response     %s\n", fmtNaN(res.MedianResponse))
	fmt.Printf("p95 response        %s\n", fmtNaN(res.P95Response))
	fmt.Printf("mean slowdown       %.2f\n", res.MeanSlowdown)
	fmt.Printf("jobs in system      %.1f (Little: lambda*W = %.1f)\n",
		res.MeanJobsInSystem, res.Throughput*res.MeanResponse)
	fmt.Printf("per-cluster util    %s (imbalance %.3f)\n",
		formatUtils(res.PerClusterUtilization), res.UtilizationImbalance)
	fmt.Printf("resp by size class  %s\n", formatClasses(res.ResponseBySizeClass))
	fmt.Printf("jobs measured       %d\n", res.Jobs)
	fmt.Printf("queue at end        %d\n", res.FinalQueue)
	fmt.Printf("saturated           %v\n", res.Saturated)
	if res.TruncatedJobs > 0 {
		fmt.Printf("jobs truncated      %d (divergence cutoff stopped the run early)\n", res.TruncatedJobs)
	}
	if *decisions {
		fmt.Printf("decisions recorded  %d\n", res.Decisions)
		meanRegret := 0.0
		if res.Jobs > 0 {
			meanRegret = res.RegretTotal / float64(res.Jobs)
		}
		fmt.Printf("regret              %.1f s/job (%d dispatches with regret, max %.0f s)\n",
			meanRegret, res.RegretDecisions, res.RegretMax)
	}
	if *mtbf > 0 {
		fmt.Printf("failures injected   %d (skipped %d, repairs %d)\n",
			res.FailuresInjected, res.FailuresSkipped, res.Repairs)
		fmt.Printf("jobs killed         %d (resubmits %d)\n", res.JobsKilled, res.Resubmits)
		fmt.Printf("work lost           %.0f proc-s\n", res.WorkLost)
		if *ckptInterval > 0 {
			fmt.Printf("work saved          %.0f proc-s (checkpoint interval %.0f s)\n", res.WorkSaved, *ckptInterval)
		}
		fmt.Printf("mean avail fraction %.4f\n", res.MeanAvailableFraction)
	}
	if *metrics {
		fmt.Println()
		fmt.Println("--- metrics ---")
		if err := observer.WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
	}
}

func formatUtils(us []float64) string {
	parts := make([]string, len(us))
	for i, u := range us {
		parts[i] = fmt.Sprintf("%.3f", u)
	}
	return strings.Join(parts, " ")
}

func formatClasses(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s:%s", core.SizeClassLabel(i), fmtNaN(v))
	}
	return strings.Join(parts, "  ")
}

func fmtNaN(v float64) string {
	if v != v {
		return "-"
	}
	return fmt.Sprintf("%.1f s", v)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcsim: "+format+"\n", args...)
	os.Exit(1)
}
