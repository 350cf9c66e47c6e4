package core

import (
	"math"
	"sync"
	"testing"

	"coalloc/internal/dist"
	"coalloc/internal/workload"
)

// traceTestConfig is one small open-system point shared by the trace
// guardrails below.
func traceTestConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         testSpec(t, 16, 4),
		Policy:       "GS",
		WarmupJobs:   200,
		MeasureJobs:  1500,
		Seed:         11,
		ArrivalRate:  testSpecRate(t, 0.5),
	}
}

// TestSharedTraceMatchesSampling is the determinism guardrail for the
// shared-workload path: replaying one pre-generated trace through every
// policy must be bit-identical to each policy sampling the workload live
// from its own streams. One Trace serves all policies — that sharing is
// the point of the mechanism, and this test pins that it changes nothing.
func TestSharedTraceMatchesSampling(t *testing.T) {
	base := traceTestConfig(t)
	tr, err := NewTrace(base, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"GS", "LS", "LP", "GS-EASY", "GS-CONS", "GS-SPF"} {
		cfg := base
		cfg.Policy = pol
		live, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s live: %v", pol, err)
		}
		cfg.TraceProvider = func(uint64) *Trace { return tr }
		replayed, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", pol, err)
		}
		if resultKey(live) != resultKey(replayed) {
			t.Errorf("%s: shared trace diverges from live sampling:\nlive   %s\ntraced %s",
				pol, resultKey(live), resultKey(replayed))
		}
	}
}

// TestTraceProviderMatchesSampling covers the replicated variant: a
// provider resolving one cached trace per replication seed must reproduce
// the plain RunReplications result exactly.
func TestTraceProviderMatchesSampling(t *testing.T) {
	cfg := traceTestConfig(t)
	cfg.Policy = "LS"
	const n = 3
	live, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	traces := map[uint64]*Trace{}
	cfg.TraceProvider = func(seed uint64) *Trace {
		mu.Lock()
		defer mu.Unlock()
		if tr, ok := traces[seed]; ok {
			return tr
		}
		tr, err := NewTrace(cfg, seed)
		if err != nil {
			return nil
		}
		traces[seed] = tr
		return tr
	}
	shared, err := RunReplications(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(live) != resultKey(shared) {
		t.Errorf("trace provider diverges from live sampling:\nlive   %s\nshared %s",
			resultKey(live), resultKey(shared))
	}
	if len(traces) != n {
		t.Errorf("provider resolved %d traces for %d replications", len(traces), n)
	}
}

// TestRunRepeatableAcrossArenaReuse pins that recycling job arenas through
// the run pool leaves no state behind: the same configuration must produce
// the identical result on every consecutive run.
func TestRunRepeatableAcrossArenaReuse(t *testing.T) {
	cfg := traceTestConfig(t)
	cfg.Policy = "GS-EASY"
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(first) != resultKey(again) {
			t.Fatalf("run %d differs after arena reuse:\nfirst %s\nagain %s",
				i+2, resultKey(first), resultKey(again))
		}
	}
}

// TestTraceMismatchRejected: Run must refuse a trace generated for a
// different seed or arrival rate instead of silently simulating the wrong
// workload.
func TestTraceMismatchRejected(t *testing.T) {
	cfg := traceTestConfig(t)
	tr, err := NewTrace(cfg, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceProvider = func(uint64) *Trace { return tr }
	if _, err := Run(cfg); err == nil {
		t.Error("seed-mismatched trace accepted")
	}
	cfg = traceTestConfig(t)
	tr, err = NewTrace(cfg, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceProvider = func(uint64) *Trace { return tr }
	cfg.ArrivalRate *= 2
	if _, err := Run(cfg); err == nil {
		t.Error("rate-mismatched trace accepted")
	}
}

// TestTraceRequiresUnordered: the trace mechanism records only the draws
// of unordered requests; every other request type must be rejected both at
// generation and at validation.
func TestTraceRequiresUnordered(t *testing.T) {
	cfg := traceTestConfig(t)
	cfg.RequestType = workload.Ordered
	if _, err := NewTrace(cfg, cfg.Seed); err == nil {
		t.Error("NewTrace accepted ordered requests")
	}
	tr, err := NewTrace(traceTestConfig(t), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceProvider = func(uint64) *Trace { return tr }
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a trace with ordered requests")
	}
}

// TestTraceRejectsUnrepresentable: a trace stores sizes as int16 and
// queue indices as uint8, so NewTrace must refuse a size distribution or
// a queue count that would not round-trip instead of truncating it.
func TestTraceRejectsUnrepresentable(t *testing.T) {
	cfg := traceTestConfig(t)
	cfg.Spec.Sizes = dist.NewEmpiricalInt([]int{1, math.MaxInt16}, []float64{1, 1})
	if _, err := NewTrace(cfg, cfg.Seed); err != nil {
		t.Errorf("NewTrace refused the largest int16 size: %v", err)
	}
	cfg.Spec.Sizes = dist.NewEmpiricalInt([]int{1, math.MaxInt16 + 1}, []float64{1, 1})
	if _, err := NewTrace(cfg, cfg.Seed); err == nil {
		t.Error("NewTrace accepted a size that does not fit an int16")
	}
	cfg = traceTestConfig(t)
	cfg.ClusterSizes = make([]int, math.MaxUint8+1)
	if _, err := NewTrace(cfg, cfg.Seed); err != nil {
		t.Errorf("NewTrace refused %d queues: %v", len(cfg.ClusterSizes), err)
	}
	cfg.ClusterSizes = make([]int, math.MaxUint8+2)
	if _, err := NewTrace(cfg, cfg.Seed); err == nil {
		t.Errorf("NewTrace accepted %d queues", len(cfg.ClusterSizes))
	}
}
