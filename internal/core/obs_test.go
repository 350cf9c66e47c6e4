package core

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/rng"
)

// obsRunConfig is a small observed LS run exercising arrivals, starts,
// departures and queue enable/disable transitions.
func obsRunConfig(t *testing.T) Config {
	t.Helper()
	spec := testSpec(t, 16, 4)
	return Config{
		ClusterSizes: []int{32, 32, 32, 32},
		Spec:         spec,
		Policy:       "LS",
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(0.6, 128),
		WarmupJobs:   100,
		MeasureJobs:  800,
		Seed:         11,
	}
}

// TestTraceByteIdentical pins the determinism guarantee of the trace sink:
// two runs of the same configuration and seed produce byte-identical JSONL.
func TestTraceByteIdentical(t *testing.T) {
	runOnce := func() []byte {
		var buf bytes.Buffer
		cfg := obsRunConfig(t)
		cfg.Observer = obs.New(&buf)
		if _, err := Run(cfg); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := cfg.Observer.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed traces differ: %d vs %d bytes", len(a), len(b))
	}
	// Every line is one of the five record kinds.
	for _, line := range strings.Split(strings.TrimRight(string(a), "\n"), "\n") {
		if !strings.HasPrefix(line, `{"t":`) || !strings.Contains(line, `"ev":`) {
			t.Fatalf("malformed trace line: %s", line)
		}
	}
}

// TestObserverMetricsConsistent checks the invariants the counters must
// satisfy on any completed open-system run.
func TestObserverMetricsConsistent(t *testing.T) {
	cfg := obsRunConfig(t)
	o := obs.New(nil)
	cfg.Observer = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := o.Metrics
	arrivals := m.Counter("jobs.arrivals").Value()
	starts := m.Counter("jobs.starts").Value()
	departures := m.Counter("jobs.departures").Value()
	if departures != uint64(cfg.WarmupJobs+res.Jobs) {
		t.Fatalf("departures = %d, want warmup+measured = %d", departures, cfg.WarmupJobs+res.Jobs)
	}
	if starts < departures || arrivals < starts {
		t.Fatalf("want arrivals >= starts >= departures, got %d/%d/%d", arrivals, starts, departures)
	}
	if m.Counter("sched.passes").Value() == 0 {
		t.Fatal("no scheduling passes recorded")
	}
	// LS disables a queue on every head miss; every disable is matched by
	// at most one enable (the run can end with queues still disabled).
	dis, en := m.Counter("queues.disables").Value(), m.Counter("queues.enables").Value()
	if dis == 0 {
		t.Fatal("no queue disables recorded at 60% load")
	}
	if en > dis {
		t.Fatalf("enables %d exceed disables %d", en, dis)
	}
	if m.Counter("sched.head_misses").Value() != dis {
		t.Fatalf("LS head misses %d != disables %d", m.Counter("sched.head_misses").Value(), dis)
	}
	if m.Counter("sim.events").Value() == 0 || m.Counter("sim.scheduled").Value() == 0 {
		t.Fatal("engine stats were not reported")
	}
}

// TestZeroWarmupLindley checks the NoWarmup path against a hand-computed
// schedule: with one unit-size processor and FCFS service the response
// times follow the Lindley recursion start_i = max(arrival_i, finish_i-1),
// and measurement from time zero must reproduce their mean exactly —
// including the first job, which the old departure-triggered start of
// measurement silently dropped.
func TestZeroWarmupLindley(t *testing.T) {
	const (
		seed   = uint64(42)
		n      = 500
		lambda = 0.5
		mu     = 1.0
	)
	cfg := Config{
		ClusterSizes: []int{1},
		Spec:         ExpService(mu),
		Policy:       "SC",
		ArrivalRate:  lambda,
		NoWarmup:     true,
		MeasureJobs:  n,
		Seed:         seed,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Jobs != n {
		t.Fatalf("measured %d jobs, want %d", res.Jobs, n)
	}

	// Replicate the simulator's named streams and sampling order: the
	// next interarrival gap is drawn before each arrival, and each job's
	// size and service are drawn at its arrival.
	src := rng.NewSource(seed)
	arr := src.Stream("core/arrivals")
	sizeStream := src.Stream("core/sizes")
	svcStream := src.Stream("core/services")
	spec := ExpService(mu)
	var at, finish, sum float64
	for i := 0; i < n; i++ {
		at += arr.Exp(lambda)
		j := spec.Sample(sizeStream, svcStream)
		start := math.Max(at, finish)
		finish = start + j.ServiceTime
		sum += finish - at
	}
	want := sum / n
	if diff := math.Abs(res.MeanResponse - want); diff > 1e-9*want {
		t.Fatalf("MeanResponse = %g, Lindley schedule gives %g (diff %g)", res.MeanResponse, want, diff)
	}
}

// TestNoWarmupDeterministic pins that two NoWarmup runs agree bit-for-bit.
func TestNoWarmupDeterministic(t *testing.T) {
	cfg := obsRunConfig(t)
	cfg.WarmupJobs = 0
	cfg.NoWarmup = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.MeanResponse != b.MeanResponse || a.GrossUtilization != b.GrossUtilization || a.Jobs != b.Jobs {
		t.Fatalf("NoWarmup runs differ: %+v vs %+v", a, b)
	}
}

// TestMergeReplicationsAllNaN: metrics that were NaN in every replication
// (no local jobs, no quantile samples) must stay NaN after the merge
// rather than silently becoming 0.
func TestMergeReplicationsAllNaN(t *testing.T) {
	nan := math.NaN()
	mk := func(mean float64) Result {
		return Result{
			Policy:              "GS",
			MeanResponse:        mean,
			MeanResponseLocal:   nan,
			MeanResponseGlobal:  nan,
			MedianResponse:      nan,
			P95Response:         nan,
			ResponseBySizeClass: []float64{nan, nan, nan, nan, nan},
		}
	}
	merged := mergeReplications([]Result{mk(100), mk(120), mk(110)})
	if merged.MeanResponse != 110 {
		t.Fatalf("MeanResponse = %g, want 110", merged.MeanResponse)
	}
	for name, v := range map[string]float64{
		"MeanResponseLocal":  merged.MeanResponseLocal,
		"MeanResponseGlobal": merged.MeanResponseGlobal,
		"MedianResponse":     merged.MedianResponse,
		"P95Response":        merged.P95Response,
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %g, want NaN", name, v)
		}
	}
	for i, v := range merged.ResponseBySizeClass {
		if !math.IsNaN(v) {
			t.Errorf("ResponseBySizeClass[%d] = %g, want NaN", i, v)
		}
	}
}

// TestMergeReplicationsSingleHalfWidth: one replication gives no
// across-replication variance estimate, so the half-width must be +Inf,
// never 0 (which would claim perfect confidence).
func TestMergeReplicationsSingleHalfWidth(t *testing.T) {
	merged := mergeReplications([]Result{{Policy: "GS", MeanResponse: 100}})
	if !math.IsInf(merged.RespHalfWidth, 1) {
		t.Fatalf("single-replication RespHalfWidth = %g, want +Inf", merged.RespHalfWidth)
	}
	if merged.MeanResponse != 100 {
		t.Fatalf("MeanResponse = %g, want 100", merged.MeanResponse)
	}
}

// TestRunReplicationsObservedSerialMatchesParallel: attaching an Observer
// switches RunReplications to the serial path; the merged Result must be
// bit-identical to the parallel run without one.
func TestRunReplicationsObservedSerialMatchesParallel(t *testing.T) {
	cfg := obsRunConfig(t)
	cfg.MeasureJobs = 400
	parallel, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatalf("RunReplications: %v", err)
	}
	cfg.Observer = obs.New(nil)
	serial, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatalf("RunReplications (observed): %v", err)
	}
	if parallel.MeanResponse != serial.MeanResponse || parallel.Jobs != serial.Jobs ||
		parallel.GrossUtilization != serial.GrossUtilization {
		t.Fatalf("observed serial merge differs from parallel: %+v vs %+v", serial, parallel)
	}
	if cfg.Observer.Metrics.Counter("jobs.departures").Value() == 0 {
		t.Fatal("observer saw no departures across replications")
	}
}

// TestObserverDoesNotRetainSimulation pins that an Observer outliving its
// run does not keep the finished simulation alive: the driver detaches the
// engine clock it installed, so the engine, the policy, the arena and
// everything they hold become garbage when the front end returns. Each
// case hands the run an object that only the simulation references and
// waits for its finalizer with the Observer still reachable.
func TestObserverDoesNotRetainSimulation(t *testing.T) {
	cases := map[string]func(o *obs.Observer, owned func(any)) error{
		"Run": func(o *obs.Observer, owned func(any)) error {
			cfg := obsRunConfig(t)
			cfg.MeasureJobs = 200
			base := cfg
			cfg.Observer = o
			cfg.TraceProvider = func(seed uint64) *Trace {
				tr, err := NewTrace(base, seed)
				if err != nil {
					t.Fatal(err)
				}
				owned(tr) // held only by the run's trace cursor
				return tr
			}
			_, err := Run(cfg)
			return err
		},
		"Replay": func(o *obs.Observer, owned func(any)) error {
			sched := new(bytes.Buffer)
			owned(sched) // held only by the run's schedule writer
			_, err := Replay(ReplayConfig{
				ClusterSizes:    []int{32, 32, 32, 32},
				Records:         replayRecords(200),
				Policy:          "GS-CONS",
				ComponentLimit:  16,
				ExtensionFactor: 1.25,
				ScheduleWriter:  sched,
				Observer:        o,
			})
			return err
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			o := obs.New(nil)
			collected := make(chan struct{})
			owned := func(v any) {
				runtime.SetFinalizer(v, func(any) { close(collected) })
			}
			if err := run(o, owned); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(o)
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
			runtime.KeepAlive(o)
			t.Fatal("the finished simulation is still reachable from its Observer")
		})
	}
}
