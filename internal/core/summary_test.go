package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"coalloc/internal/dectrace"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
)

// withoutDetail clears a Result's detail fields, the ones SummaryOnly
// turns off, so the summary fields compare by pinFields.
func withoutDetail(r Result) Result {
	r.RespHalfWidth, r.MedianResponse, r.P95Response = 0, 0, 0
	r.MeanSlowdown, r.UtilizationImbalance = 0, 0
	r.ResponseBySizeClass, r.PerClusterUtilization = nil, nil
	return r
}

// detailOff reports which of a single SummaryOnly run's detail fields do
// not read NaN (or nil, for the slices).
func detailOff(r Result) []string {
	var bad []string
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"RespHalfWidth", r.RespHalfWidth},
		{"MedianResponse", r.MedianResponse},
		{"P95Response", r.P95Response},
		{"MeanSlowdown", r.MeanSlowdown},
		{"UtilizationImbalance", r.UtilizationImbalance},
	} {
		if !math.IsNaN(f.v) {
			bad = append(bad, fmt.Sprintf("%s=%g", f.name, f.v))
		}
	}
	if r.ResponseBySizeClass != nil {
		bad = append(bad, fmt.Sprintf("ResponseBySizeClass=%v", r.ResponseBySizeClass))
	}
	if r.PerClusterUtilization != nil {
		bad = append(bad, fmt.Sprintf("PerClusterUtilization=%v", r.PerClusterUtilization))
	}
	return bad
}

// observedRun runs cfg, with an Observer writing a JSONL trace when
// observe is set, and returns the result, the trace and the metrics block.
func observedRun(t *testing.T, cfg Config, observe bool) (Result, string, string) {
	t.Helper()
	var trace bytes.Buffer
	if observe {
		cfg.Observer = obs.New(&trace)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !observe {
		return res, "", ""
	}
	if err := cfg.Observer.Flush(); err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	if err := cfg.Observer.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	return res, trace.String(), metrics.String()
}

// TestSummaryOnlyIdentity pins the SummaryOnly contract across the policy,
// fault and instrumentation matrix: every summary field is bit-identical
// to a full run's, every detail field is NaN or nil, and the JSONL trace
// and the Observer's counters are byte-identical.
func TestSummaryOnlyIdentity(t *testing.T) {
	faultModes := []struct {
		name string
		spec *faults.Spec
	}{
		{"no-faults", nil},
		{"faults", &faults.Spec{MTBF: 1500, MTTR: 600}},
		{"checkpoint", &faults.Spec{MTBF: 1500, MTTR: 600, CheckpointInterval: 60}},
	}
	for _, policy := range []string{"GS", "LS", "LP", "SC", "GS-EASY", "GS-CONS"} {
		for _, fm := range faultModes {
			for _, instrumented := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/instrumented=%v", policy, fm.name, instrumented)
				t.Run(name, func(t *testing.T) {
					cfg := decTestConfig(t, policy)
					cfg.Faults = fm.spec
					if instrumented {
						cfg.Decisions = &dectrace.Options{}
					}
					full, fullTrace, fullMetrics := observedRun(t, cfg, instrumented)
					cfg.SummaryOnly = true
					sum, sumTrace, sumMetrics := observedRun(t, cfg, instrumented)

					if math.IsNaN(full.MedianResponse) || full.ResponseBySizeClass == nil || full.PerClusterUtilization == nil {
						t.Fatalf("the full run kept no detail statistics: %+v", full)
					}
					if fm.spec != nil && full.JobsKilled == 0 {
						t.Fatal("no kills; the fault mode tests nothing")
					}
					if got, want := pinFields(withoutDetail(sum)), pinFields(withoutDetail(full)); got != want {
						t.Errorf("summary fields differ:\nsummary-only %s\nfull         %s", got, want)
					}
					if bad := detailOff(sum); bad != nil {
						t.Errorf("detail fields kept under SummaryOnly: %v", bad)
					}
					if sumTrace != fullTrace {
						t.Error("SummaryOnly changed the JSONL trace")
					}
					if sumMetrics != fullMetrics {
						t.Errorf("SummaryOnly changed the metrics block:\nfull:\n%s\nsummary-only:\n%s", fullMetrics, sumMetrics)
					}
				})
			}
		}
	}
}

// TestSummaryOnlyMergedReplications checks that merging SummaryOnly
// replications keeps every summary field — the across-replication
// half-width included — bit-identical to the merge of full runs, and leaves
// the detail fields NaN or nil rather than folding a NaN into a kept one.
func TestSummaryOnlyMergedReplications(t *testing.T) {
	cfg := decTestConfig(t, "LS")
	cfg.Faults = &faults.Spec{MTBF: 1500, MTTR: 600}
	full, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SummaryOnly = true
	sum, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// LS has no global queue, so MeanResponseGlobal is NaN in both merges
	// and pinFields covers it.
	for _, v := range []float64{sum.MeanResponse, sum.RespHalfWidth, sum.MeanResponseLocal,
		sum.GrossUtilization, sum.NetUtilization, sum.MeanJobsInSystem, sum.Throughput,
		sum.MeanAvailableFraction} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("a kept field of the merged summary-only result is %g: %+v", v, sum)
		}
	}
	if sum.RespHalfWidth != full.RespHalfWidth {
		t.Errorf("merged RespHalfWidth %g, full %g", sum.RespHalfWidth, full.RespHalfWidth)
	}
	sum.RespHalfWidth = math.NaN() // the one detail field a merge recomputes
	if got, want := pinFields(withoutDetail(sum)), pinFields(withoutDetail(full)); got != want {
		t.Errorf("merged summary fields differ:\nsummary-only %s\nfull         %s", got, want)
	}
	if bad := detailOff(sum); bad != nil {
		t.Errorf("merged detail fields: %v", bad)
	}
}
