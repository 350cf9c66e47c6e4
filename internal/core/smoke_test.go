package core

import (
	"math"
	"testing"

	"coalloc/internal/dist"
	"coalloc/internal/workload"
)

// TestMM1Sanity validates the full pipeline against the analytic M/M/1
// mean response time on a degenerate configuration: one cluster with one
// processor, unit-size jobs, exponential service.
func TestMM1Sanity(t *testing.T) {
	const mu, rho = 1.0, 0.6
	cfg := Config{
		ClusterSizes: []int{1},
		Spec:         ExpService(mu),
		Policy:       "SC",
		ArrivalRate:  rho * mu,
		WarmupJobs:   5000,
		MeasureJobs:  60000,
		Seed:         42,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := MM1Response(cfg.ArrivalRate, mu)
	if math.Abs(res.MeanResponse-want)/want > 0.08 {
		t.Errorf("M/M/1 mean response = %.3f, want %.3f (+-8%%)", res.MeanResponse, want)
	}
	if math.Abs(res.GrossUtilization-rho) > 0.03 {
		t.Errorf("utilization = %.3f, want %.3f", res.GrossUtilization, rho)
	}
	if math.Abs(res.NetUtilization-res.GrossUtilization) > 0.02 {
		t.Errorf("net %.3f and gross %.3f should coincide without extension",
			res.NetUtilization, res.GrossUtilization)
	}
}

// TestAllPoliciesSmoke runs each policy briefly on the paper's system and
// checks basic invariants of the results.
func TestAllPoliciesSmoke(t *testing.T) {
	der := workload.DeriveDefault()
	for _, pol := range []string{"GS", "LS", "LP"} {
		spec := workload.Spec{
			Sizes:           der.Sizes128,
			Service:         der.Service,
			ComponentLimit:  16,
			Clusters:        4,
			ExtensionFactor: workload.DefaultExtensionFactor,
		}
		cfg := Config{
			ClusterSizes: []int{32, 32, 32, 32},
			Spec:         spec,
			Policy:       pol,
			WarmupJobs:   500,
			MeasureJobs:  4000,
			Seed:         7,
		}
		res, err := RunAtUtilization(cfg, 0.3)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.MeanResponse <= 0 {
			t.Errorf("%s: non-positive mean response %g", pol, res.MeanResponse)
		}
		if res.GrossUtilization < 0.2 || res.GrossUtilization > 0.4 {
			t.Errorf("%s: gross utilization %.3f far from offered 0.3", pol, res.GrossUtilization)
		}
		if res.NetUtilization >= res.GrossUtilization {
			t.Errorf("%s: net %.3f should be below gross %.3f (extension factor active)",
				pol, res.NetUtilization, res.GrossUtilization)
		}
		t.Logf("%s: resp=%.0f gross=%.3f net=%.3f", pol, res.MeanResponse, res.GrossUtilization, res.NetUtilization)
	}
}

// TestBacklogSmoke checks the constant-backlog saturation measurement.
func TestBacklogSmoke(t *testing.T) {
	der := workload.DeriveDefault()
	spec := workload.Spec{
		Sizes:           der.Sizes128,
		Service:         der.Service,
		ComponentLimit:  16,
		Clusters:        4,
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
	res, err := RunBacklog(BacklogConfig{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "GS",
		WarmupTime:   20000,
		MeasureTime:  100000,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxGrossUtilization <= 0.3 || res.MaxGrossUtilization > 1 {
		t.Errorf("maximal gross utilization %.3f out of plausible range", res.MaxGrossUtilization)
	}
	if res.MaxNetUtilization >= res.MaxGrossUtilization {
		t.Errorf("net %.3f should be below gross %.3f", res.MaxNetUtilization, res.MaxGrossUtilization)
	}
	t.Logf("GS backlog: gross=%.3f net=%.3f thru=%.4f jobs=%d",
		res.MaxGrossUtilization, res.MaxNetUtilization, res.Throughput, res.Jobs)
}

// MM1Response returns the analytic M/M/1 mean response time for arrival
// rate lambda and service rate mu — the oracle the integration tests use
// to validate the whole pipeline on a degenerate configuration (one
// cluster, one processor, unit-size jobs, exponential service).
func MM1Response(lambda, mu float64) float64 {
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// ExpService returns a workload spec for such a degenerate M/M/1 system.
func ExpService(mu float64) workload.Spec {
	return workload.Spec{
		Sizes:           dist.NewEmpiricalInt([]int{1}, []float64{1}),
		Service:         dist.NewExponential(mu),
		ComponentLimit:  1,
		Clusters:        1,
		ExtensionFactor: 1,
	}
}
