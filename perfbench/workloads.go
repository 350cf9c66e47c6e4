package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/dastrace"
	"coalloc/internal/dectrace"
	"coalloc/internal/experiments"
	"coalloc/internal/faults"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// workloadDef is one benchmark workload. setup derives its inputs from
// the seed and is what setup_s times; the instance it returns runs the
// workload once.
type workloadDef struct {
	name  string
	setup func(seed uint64) instance
}

// instance is a workload with its inputs derived. run executes it once;
// o, when non-nil, is attached to every simulation that accepts an
// Observer (the traced run).
type instance interface {
	run(o *obs.Observer) outcome
}

// outcome is what one run of a workload produced.
type outcome struct {
	// digest is the hex SHA-256 of the workload's results: the sweep's
	// CSV bytes, or the drivers' result values. It is compared with the
	// recorded reference for the seed and across runs.
	digest string
	// traceDigest is the hex SHA-256 of the JSONL trace the drivers'
	// open-system run writes ("" for the sweeps). It is compared across
	// runs only: the trace format is not a published result.
	traceDigest string
	// ops counts simulation calls (sweep points, replay, backlog and
	// open-system runs); failed counts those that errored or whose
	// result failed its sanity check.
	ops, failed int
	// check is non-nil when the workload as a whole failed (an
	// experiment error, a malformed CSV); every op then counts failed.
	check error
	// start and stamps time the sweep: one stamp per completed point,
	// from the Progress writer.
	start  time.Time
	stamps []stamp
	// spans are the seconds spent in each driver entry point.
	spans map[string]float64
	// traceBytes is the size of the drivers' JSONL trace.
	traceBytes int64
	// observers carry the run's counters: the traced run's Observer and
	// the drivers' own JSONL Observer.
	observers []*obs.Observer
}

var workloads = map[string]workloadDef{
	"fig3":     {name: "fig3", setup: sweepSetup("fig3", 24)},
	"backfill": {name: "backfill", setup: sweepSetup("backfill", 6)},
	"drivers":  {name: "drivers", setup: driversSetup},
}

// ---- Sweeps ----

// sweepRun is one full-preset experiments.Run of a figure sweep.
type sweepRun struct {
	exp    string
	series int // curves in the experiment's CSV
	env    *experiments.Env
}

// sweepSetup returns the set-up of a sweep workload: the full
// DefaultParams preset at the workload seed, and NewEnv's workload
// derivation.
func sweepSetup(exp string, series int) func(seed uint64) instance {
	return func(seed uint64) instance {
		p := experiments.DefaultParams()
		p.Seed = seed
		return &sweepRun{exp: exp, series: series, env: experiments.NewEnv(p)}
	}
}

func (s *sweepRun) run(o *obs.Observer) outcome {
	stamps := &stampWriter{}
	out := outcome{start: time.Now()}
	dir, err := os.MkdirTemp(workDir, s.exp+"-")
	if err != nil {
		out.ops, out.failed, out.check = 1, 1, err
		return out
	}
	defer os.RemoveAll(dir)
	s.env.DataDir = dir
	s.env.Progress = stamps
	s.env.Observer = o
	if o != nil {
		out.observers = []*obs.Observer{o}
	}
	_, runErr := experiments.Run(s.exp, s.env)
	out.stamps = stamps.all()
	out.ops = len(out.stamps)
	for _, st := range out.stamps {
		if st.failed {
			out.failed++
		}
	}
	if out.ops == 0 {
		out.ops = 1
	}
	data, readErr := os.ReadFile(filepath.Join(dir, s.exp+".csv"))
	switch {
	case runErr != nil:
		out.check = runErr
	case readErr != nil:
		out.check = readErr
	default:
		out.check = checkCSV(data, s.series)
	}
	out.digest = digest(data)
	return out
}

// checkCSV is the sanity check of a sweep's CSV, which holds for any
// seed: the series,x,y header, the expected number of curves, and every
// point a finite gross utilization in (0, 1] with a positive response
// time.
func checkCSV(data []byte, wantSeries int) error {
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return fmt.Errorf("csv: %v", err)
	}
	if len(rows) < 2 || strings.Join(rows[0], ",") != "series,x,y" {
		return fmt.Errorf("csv: missing series,x,y header or rows")
	}
	names := map[string]bool{}
	for i, r := range rows[1:] {
		if len(r) != 3 {
			return fmt.Errorf("csv row %d: %d fields", i+2, len(r))
		}
		x, errX := strconv.ParseFloat(r[1], 64)
		y, errY := strconv.ParseFloat(r[2], 64)
		if errX != nil || errY != nil || !(x > 0 && x <= 1) || !(y > 0) || math.IsInf(y, 0) {
			return fmt.Errorf("csv row %d: implausible point %q,%q", i+2, r[1], r[2])
		}
		names[r[0]] = true
	}
	if len(names) != wantSeries {
		return fmt.Errorf("csv: %d series, want %d", len(names), wantSeries)
	}
	return nil
}

// stamp is one completed sweep point as the Progress writer saw it.
type stamp struct {
	at        time.Time
	saturated bool
	failed    bool
}

// stampWriter is a Params.Progress writer that timestamps every progress
// line (the sweep writes one line per Write); the sweep workers write
// concurrently.
type stampWriter struct {
	mu     sync.Mutex
	stamps []stamp
}

func (w *stampWriter) Write(p []byte) (int, error) {
	line := string(p)
	st := stamp{
		at:        time.Now(),
		saturated: strings.Contains(line, " saturated ("),
		failed:    strings.Contains(line, " failed: "),
	}
	w.mu.Lock()
	w.stamps = append(w.stamps, st)
	w.mu.Unlock()
	return len(p), nil
}

func (w *stampWriter) all() []stamp {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]stamp(nil), w.stamps...)
}

// ---- Drivers ----

// The drivers mix runs the core driver entry points the sweeps never
// reach: trace replay below and above saturation, constant backlog, and
// one open-system run with faults, checkpointing, decision tracing and a
// JSONL event trace.
var (
	driverPolicies = []string{"GS", "LS", "LP", "GS-CONS"}
	// replayLoads compress the generated log's interarrival gaps: 2 keeps
	// every policy below saturation (gross utilization ~0.35); 10 drives
	// all four past it, GS-CONS included (queues of 10^4 jobs and more).
	replayLoads = []float64{2, 10}
)

const (
	componentLimit = 16
	openUtil       = 0.4
	openMeasure    = 30000
)

// openFaults is the open-system run's failure model: the checkpoint
// experiment's failure rate with a five-minute checkpoint interval.
var openFaults = faults.Spec{MTBF: 1000, MTTR: 900, CheckpointInterval: 300}

type driversRun struct {
	seed    uint64
	records []dastrace.Record
	derived workload.Derived
}

// driversSetup generates the seeded synthetic log and derives the
// canonical workload distributions.
func driversSetup(seed uint64) instance {
	return &driversRun{
		seed:    seed,
		records: dastrace.Generate(dastrace.GenConfig{Seed: seed}),
		derived: workload.DeriveDefault(),
	}
}

func (d *driversRun) spec(limit int, sizes128 bool) workload.Spec {
	sizes := d.derived.Sizes64
	if sizes128 {
		sizes = d.derived.Sizes128
	}
	return workload.Spec{
		Sizes:           sizes,
		Service:         d.derived.Service,
		ComponentLimit:  limit,
		Clusters:        len(experiments.MulticlusterSizes),
		ExtensionFactor: workload.DefaultExtensionFactor,
	}
}

func (d *driversRun) run(o *obs.Observer) outcome {
	out := outcome{spans: map[string]float64{}}
	var res bytes.Buffer
	// op records one driver call: its span, its failure, and its result
	// values in the digest.
	op := func(span string, t0 time.Time, err error, bad string, vals ...any) {
		out.spans[span] += time.Since(t0).Seconds()
		out.ops++
		if err == nil && bad != "" {
			err = fmt.Errorf("%s", bad)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(&res, "%s error %v\n", span, err)
			return
		}
		fmt.Fprintln(&res, append([]any{span}, formatVals(vals)...)...)
	}
	if o != nil {
		out.observers = append(out.observers, o)
	}

	for _, load := range replayLoads {
		for _, pol := range driverPolicies {
			t0 := time.Now()
			r, err := core.Replay(core.ReplayConfig{
				ClusterSizes:    experiments.MulticlusterSizes,
				Records:         d.records,
				Policy:          pol,
				ComponentLimit:  componentLimit,
				ExtensionFactor: workload.DefaultExtensionFactor,
				LoadFactor:      load,
				Seed:            d.seed,
				Observer:        o,
			})
			bad := ""
			if r.Jobs != len(d.records) || !unitInterval(r.GrossUtilization) || !(r.MeanResponse > 0) {
				bad = fmt.Sprintf("replay %s load %g: %d of %d jobs, gross utilization %g, response %g",
					pol, load, r.Jobs, len(d.records), r.GrossUtilization, r.MeanResponse)
			}
			op("replay", t0, err, bad, pol, load, r.Jobs, r.MeanResponse, r.MedianResponse,
				r.P95Response, r.MeanSlowdown, r.Makespan, r.GrossUtilization, r.NetUtilization, r.MaxQueue)
		}
	}

	for _, pol := range driverPolicies {
		t0 := time.Now()
		r, err := core.RunBacklog(core.BacklogConfig{
			ClusterSizes: experiments.MulticlusterSizes,
			Spec:         d.spec(componentLimit, true),
			Policy:       pol,
			Seed:         d.seed,
		})
		bad := ""
		if r.Jobs <= 0 || !unitInterval(r.MaxGrossUtilization) {
			bad = fmt.Sprintf("backlog %s: %d jobs, gross utilization %g", pol, r.Jobs, r.MaxGrossUtilization)
		}
		op("backlog", t0, err, bad, pol, r.Jobs, r.MaxGrossUtilization, r.MaxNetUtilization, r.Throughput)
	}

	tw := &traceWriter{h: sha256.New()}
	to := obs.New(tw)
	out.observers = append(out.observers, to)
	spec := d.spec(componentLimit, false)
	fs := openFaults
	t0 := time.Now()
	r, err := core.Run(core.Config{
		ClusterSizes: experiments.MulticlusterSizes,
		Spec:         spec,
		Policy:       "GS-CONS",
		ArrivalRate:  spec.ArrivalRateForGrossUtilization(openUtil, 128),
		MeasureJobs:  openMeasure,
		Seed:         d.seed,
		Observer:     to,
		Faults:       &fs,
		Decisions:    &dectrace.Options{},
	})
	if cerr := to.Close(); err == nil {
		err = cerr
	}
	bad := ""
	if r.Jobs != openMeasure || r.JobsKilled == 0 || r.Decisions == 0 || tw.n == 0 {
		bad = fmt.Sprintf("open run: %d jobs, %d kills, %d decisions, %d trace bytes",
			r.Jobs, r.JobsKilled, r.Decisions, tw.n)
	}
	op("open_faulted", t0, err, bad, r.Jobs, r.MeanResponse, r.RespHalfWidth, r.MedianResponse,
		r.P95Response, r.MeanSlowdown, r.GrossUtilization, r.NetUtilization, r.FinalQueue,
		r.Saturated, r.JobsKilled, r.Resubmits, r.WorkLost, r.WorkSaved,
		r.Decisions, r.RegretTotal, r.RegretMax)

	out.traceBytes = tw.n
	out.traceDigest = hex.EncodeToString(tw.h.Sum(nil))
	out.digest = digest(res.Bytes())
	return out
}

// unitInterval reports whether v is a plausible utilization.
func unitInterval(v float64) bool { return v > 0 && v <= 1 }

// formatVals renders floats in shortest round-trip form, so equal
// digests mean bit-identical values.
func formatVals(vals []any) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		if f, ok := v.(float64); ok {
			out[i] = strconv.FormatFloat(f, 'g', -1, 64)
		} else {
			out[i] = v
		}
	}
	return out
}

// traceWriter discards the JSONL trace, counting and hashing its bytes.
type traceWriter struct {
	n int64
	h hash.Hash
}

func (w *traceWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	w.h.Write(p)
	return len(p), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
