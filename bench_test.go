package coalloc

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Each Table/Fig benchmark executes the corresponding experiment runner at
// reduced (quick) fidelity so `go test -bench=.` regenerates the entire
// evaluation in minutes; use cmd/mcexp without -quick for
// publication-fidelity output.

import (
	"testing"

	"coalloc/internal/cluster"
	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/experiments"
	"coalloc/internal/faults"
	"coalloc/internal/rng"
	"coalloc/internal/sim"
	"coalloc/internal/workload"
)

// benchEnv returns a reduced-fidelity experiment environment. The derived
// workload is rebuilt per call; its cost is part of every experiment.
func benchEnv() *experiments.Env {
	p := experiments.QuickParams()
	p.WarmupJobs = 200
	p.MeasureJobs = 2000
	p.Utilizations = []float64{0.2, 0.4, 0.55, 0.7}
	p.BacklogWarmup = 10_000
	p.BacklogMeasure = 60_000
	return experiments.NewEnv(p)
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	env := benchEnv()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(name, env)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }

// BenchmarkGrossNetRatio regenerates the Section 4 analytic ratios.
func BenchmarkGrossNetRatio(b *testing.B) { benchExperiment(b, "ratio") }

// BenchmarkFigureWallClock measures the end-to-end wall clock of a
// saturated-heavy figure sweep — several policy curves whose grids reach
// deep into saturation, replications per point — on the figure-level
// schedule, under the two saturated-point regimes:
//
//   - legacy: full-horizon saturated points (saturation cutoff off);
//   - overhauled: the deterministic saturation cutoff (the presets'
//     default).
//
// The rendered curves are identical between the two (pinned by the
// cutoff guardrail tests); only the wall clock differs. This is the
// benchmark behind the sweep-overhaul record in BENCH_4.json, whose
// legacy arm originally also used per-curve scheduling barriers; that
// schedule is gone, and the cutoff alone accounts for a similar ratio.
// Both arms run only the 0.9 point of each curve: it saturates, and the
// figure schedule claims points in ascending grid order, so the curve's
// stop marker cuts 0.95 before it is claimed. That leaves the ratio
// noisier (3.5–6.3× in single-shot runs on a 2-core machine) but above
// the 3× floor make bench-smoke gates.
func BenchmarkFigureWallClock(b *testing.B) {
	run := func(cutoff bool) func(*testing.B) {
		return func(b *testing.B) {
			p := experiments.QuickParams()
			p.WarmupJobs = 100
			p.MeasureJobs = 20000
			p.Replications = 2
			// The grid is the deep tail of the paper's sweep. The curves
			// below are GS across the component-size limits 16/24/32
			// (the paper's usual figure parameterization); GS tops out
			// near 0.62 gross for all of them, so every point here is far
			// beyond saturation. These are the points that dominate a
			// full figure's wall clock: the runs the cutoff truncates.
			// Only 0.9 runs; it ends each curve before 0.95 is claimed.
			p.Utilizations = []float64{0.9, 0.95}
			p.SaturationCutoff = cutoff
			env := experiments.NewEnv(p)
			specs := []experiments.CurveSpec{
				{Label: "GS-16", Policy: "GS", ClusterSizes: experiments.MulticlusterSizes, Spec: env.MultiSpec(16, env.Derived.Sizes128)},
				{Label: "GS-24", Policy: "GS", ClusterSizes: experiments.MulticlusterSizes, Spec: env.MultiSpec(24, env.Derived.Sizes128)},
				{Label: "GS-32", Policy: "GS", ClusterSizes: experiments.MulticlusterSizes, Spec: env.MultiSpec(32, env.Derived.Sizes128)},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sets, err := env.CurveSet(specs)
				if err != nil {
					b.Fatal(err)
				}
				if len(sets) != len(specs) {
					b.Fatalf("%d curves for %d specs", len(sets), len(specs))
				}
			}
		}
	}
	b.Run("legacy", run(false))
	b.Run("overhauled", run(true))
}

// --- ablations -------------------------------------------------------------

// BenchmarkPlacementRules compares Worst Fit (the paper's rule) with First
// Fit and Best Fit placement under the GS policy at a fixed load; the
// reported metric of interest is the mean response time printed per rule.
func BenchmarkPlacementRules(b *testing.B) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	for _, fit := range []cluster.Fit{cluster.WorstFit, cluster.FirstFit, cluster.BestFit} {
		fit := fit
		b.Run(fit.String(), func(b *testing.B) {
			var last core.Result
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					ClusterSizes: []int{32, 32, 32, 32},
					Spec:         spec,
					Policy:       "GS",
					Fit:          fit,
					WarmupJobs:   300,
					MeasureJobs:  3000,
					Seed:         1,
				}
				res, err := core.RunAtUtilization(cfg, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MeanResponse, "resp-s")
		})
	}
}

// BenchmarkExtensionFactor sweeps the wide-area slowdown around the
// paper's 1.25 and reports LS's maximal net utilization for each value.
func BenchmarkExtensionFactor(b *testing.B) {
	der := workload.DeriveDefault()
	for _, ext := range []float64{1.0, 1.25, 1.5} {
		ext := ext
		b.Run(formatExt(ext), func(b *testing.B) {
			var last core.BacklogResult
			for i := 0; i < b.N; i++ {
				spec := workload.Spec{
					Sizes:           der.Sizes128,
					Service:         der.Service,
					ComponentLimit:  16,
					Clusters:        4,
					ExtensionFactor: ext,
				}
				res, err := core.RunBacklog(core.BacklogConfig{
					ClusterSizes: []int{32, 32, 32, 32},
					Spec:         spec,
					Policy:       "LS",
					WarmupTime:   10_000,
					MeasureTime:  60_000,
					Seed:         1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.MaxNetUtilization, "max-net-util")
		})
	}
}

func formatExt(ext float64) string {
	switch ext {
	case 1.0:
		return "ext1.00"
	case 1.25:
		return "ext1.25"
	default:
		return "ext1.50"
	}
}

// BenchmarkPolicyThroughput measures raw simulator speed per policy: one
// open-system run of 5000 jobs per iteration.
func BenchmarkPolicyThroughput(b *testing.B) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	for _, policy := range []string{"GS", "LS", "LP"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					ClusterSizes: []int{32, 32, 32, 32},
					Spec:         spec,
					Policy:       policy,
					WarmupJobs:   100,
					MeasureJobs:  5000,
					Seed:         uint64(i + 1),
				}
				if _, err := core.RunAtUtilization(cfg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineEventRate measures the DES kernel's raw event throughput.
func BenchmarkEngineEventRate(b *testing.B) {
	e := sim.New()
	r := rng.NewStream(1)
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			e.After(r.Exp(1), next)
		}
	}
	e.After(1, next)
	b.ResetTimer()
	e.Run()
}

// BenchmarkTraceGeneration measures synthetic-log construction, the setup
// cost shared by every experiment.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := dastrace.Default()
		if len(recs) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkWorkloadSampling measures job construction (size draw, split,
// service draw) — the per-arrival cost of a simulation.
func BenchmarkWorkloadSampling(b *testing.B) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	sizeStream := rng.NewStream(1)
	svcStream := rng.NewStream(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j := spec.Sample(sizeStream, svcStream); j.TotalSize == 0 {
			b.Fatal("bad job")
		}
	}
}

// BenchmarkBackfillAblation regenerates the EASY/conservative backfilling
// comparison at quick fidelity.
func BenchmarkBackfillAblation(b *testing.B) { benchExperiment(b, "backfill") }

// BenchmarkDisciplineAblation regenerates the FCFS/SPF/EASY comparison.
func BenchmarkDisciplineAblation(b *testing.B) { benchExperiment(b, "discipline") }

// BenchmarkRequestTypes regenerates the request-structure ablation.
func BenchmarkRequestTypes(b *testing.B) { benchExperiment(b, "reqtypes") }

// BenchmarkBackfillPolicies measures the per-run cost of the scheduling
// policies with nontrivial per-event work (reservation arithmetic).
func BenchmarkBackfillPolicies(b *testing.B) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	for _, policy := range []string{"GS-EASY", "GS-CONS", "GS-SPF"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					ClusterSizes: []int{32, 32, 32, 32},
					Spec:         spec,
					Policy:       policy,
					WarmupJobs:   100,
					MeasureJobs:  5000,
					Seed:         uint64(i + 1),
				}
				if _, err := core.RunAtUtilization(cfg, 0.7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultPathDisabled measures the open-system hot loop with a
// zero-failure-rate fault spec attached. The spec is disabled, so the run
// must cost the same as a plain run — the benchmark pins the "faults off
// means zero overhead" contract (no fault events, no registry tracking,
// no extra allocations) that the guardrail test pins for outputs. The
// GS-CONS variant additionally covers the backfilling fault hooks
// (checkpoint-aware durations, the capacity-change repair plumbing): the
// retained-reservation fast path must stay exactly as free as it is
// without a fault spec.
func BenchmarkFaultPathDisabled(b *testing.B) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	for _, policy := range []string{"LS", "GS-CONS"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					ClusterSizes: []int{32, 32, 32, 32},
					Spec:         spec,
					Policy:       policy,
					WarmupJobs:   100,
					MeasureJobs:  5000,
					Seed:         uint64(i + 1),
					Faults:       &faults.Spec{MTBF: 0, MTTR: 900},
				}
				if _, err := core.RunAtUtilization(cfg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecisionPathDisabled measures the open-system hot loop with
// decision tracing off — the default. Every dispatch, head-miss and
// reservation site now carries a tracer hook, but a nil tracer must cost
// one pointer compare: the benchmark pins the "tracing off means zero
// overhead" contract (no probes, no regret accounting, no extra
// allocations) that the core guardrail test pins for outputs. The GS-CONS
// variant covers the backfilling hooks (BeginAlts/AddAlt/Reserve on the
// availability profile); LS covers the FCFS-family dispatch and miss
// hooks.
func BenchmarkDecisionPathDisabled(b *testing.B) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	for _, policy := range []string{"LS", "GS-CONS"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					ClusterSizes: []int{32, 32, 32, 32},
					Spec:         spec,
					Policy:       policy,
					WarmupJobs:   100,
					MeasureJobs:  5000,
					Seed:         uint64(i + 1),
					Decisions:    nil, // tracing off: the hooks must vanish
				}
				if _, err := core.RunAtUtilization(cfg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplay measures trace-replay throughput (jobs per op reported
// via b.N scaling: one 10k-job replay per iteration).
func BenchmarkReplay(b *testing.B) {
	recs := dastrace.Generate(dastrace.GenConfig{NumJobs: 10000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Replay(core.ReplayConfig{
			ClusterSizes:    []int{32, 32, 32, 32},
			Records:         recs,
			Policy:          "LS",
			ComponentLimit:  16,
			ExtensionFactor: workload.DefaultExtensionFactor,
			LoadFactor:      2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeClasses regenerates the per-size-class response breakdown.
func BenchmarkSizeClasses(b *testing.B) { benchExperiment(b, "sizeclasses") }

// BenchmarkReenableAblation regenerates the LS re-enable-order comparison.
func BenchmarkReenableAblation(b *testing.B) { benchExperiment(b, "reenable") }

// BenchmarkFitRulesAblation regenerates the WF/FF/BF placement comparison.
func BenchmarkFitRulesAblation(b *testing.B) { benchExperiment(b, "fits") }

// BenchmarkExtSweepAblation regenerates the extension-factor sweep.
func BenchmarkExtSweepAblation(b *testing.B) { benchExperiment(b, "extsweep") }
