package core

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"coalloc/internal/cluster"
	"coalloc/internal/dastrace"
	"coalloc/internal/obs"
	"coalloc/internal/workload"
)

// ReplayConfig describes a trace-replay simulation: instead of sampling a
// synthetic arrival process, the recorded submit times, sizes and service
// times of a job log are fed through a policy directly. This is the other
// sense of "trace-based" simulation, and lets archive traces (read via
// dastrace.ReadSWF) be replayed against any of the policies.
type ReplayConfig struct {
	// ClusterSizes gives the processors per cluster.
	ClusterSizes []int
	// Records is the job log, in any order; it is replayed by submit
	// time. Records with non-positive size or service time, or a size
	// exceeding the total capacity, are rejected with an error.
	Records []dastrace.Record
	// Policy is any policy Config accepts.
	Policy string
	// Fit is the placement rule.
	Fit cluster.Fit
	// ComponentLimit splits each recorded size into components, exactly
	// as the synthetic workload does. Use the largest recorded size (or
	// the single-cluster capacity) to replay total requests.
	ComponentLimit int
	// ExtensionFactor multiplies the service time of multi-component
	// jobs (>= 1).
	ExtensionFactor float64
	// LoadFactor compresses (>1) or dilates (<1) the recorded
	// interarrival gaps: arrival time = submit / LoadFactor. The same
	// jobs offered faster produce a higher utilization — the standard
	// way to sweep load in trace-driven studies. 0 means 1.
	LoadFactor float64
	// QueueWeights routes jobs to local queues (nil = balanced).
	QueueWeights []float64
	// Seed drives queue routing (the only randomness in a replay).
	Seed uint64
	// ScheduleWriter, when non-nil, receives one CSV row per completed
	// job: id,size,components,arrival,start,finish,clusters — the data
	// for a Gantt-style visualization of the replayed schedule.
	ScheduleWriter io.Writer
	// Observer, when non-nil, receives the replay's metrics and
	// (optionally) its JSONL event trace.
	Observer *obs.Observer
}

// ReplayResult reports the metrics of a finite replay run.
type ReplayResult struct {
	Policy string
	// Jobs is the number of jobs replayed to completion.
	Jobs int
	// MeanResponse, MedianResponse, P95Response summarize response
	// times over all replayed jobs.
	MeanResponse   float64
	MedianResponse float64
	P95Response    float64
	// MeanSlowdown is the mean bounded slowdown.
	MeanSlowdown float64
	// Makespan is the span from the first arrival to the last departure.
	Makespan float64
	// GrossUtilization and NetUtilization are measured over the
	// makespan.
	GrossUtilization float64
	NetUtilization   float64
	// MaxQueue is the largest number of waiting jobs observed.
	MaxQueue int
}

// Replay runs a trace through a policy and returns its metrics. It is the
// simulation of Run fed by the recorded jobs: each is built in the run's
// arena and its arrival scheduled at set-up, and the whole run, from t=0
// to the last departure, is measured.
func Replay(rc ReplayConfig) (ReplayResult, error) {
	cfg := Config{
		ClusterSizes: rc.ClusterSizes,
		Spec: workload.Spec{
			ComponentLimit:  rc.ComponentLimit,
			Clusters:        len(rc.ClusterSizes),
			ExtensionFactor: rc.ExtensionFactor,
		},
		Policy:       rc.Policy,
		Fit:          rc.Fit,
		QueueWeights: rc.QueueWeights,
		MeasureJobs:  math.MaxInt, // never stop on a departure count
		Seed:         rc.Seed,
		Observer:     rc.Observer,
	}
	pol, err := cfg.checkShared()
	if err != nil {
		return ReplayResult{}, err
	}
	if len(rc.Records) == 0 {
		return ReplayResult{}, fmt.Errorf("core: replay with no records")
	}
	if rc.ComponentLimit <= 0 {
		return ReplayResult{}, fmt.Errorf("core: replay component limit %d", rc.ComponentLimit)
	}
	if rc.ExtensionFactor < 1 {
		return ReplayResult{}, fmt.Errorf("core: replay extension factor %g", rc.ExtensionFactor)
	}
	load := rc.LoadFactor
	if load == 0 {
		load = 1
	}
	if load <= 0 {
		return ReplayResult{}, fmt.Errorf("core: replay load factor %g", rc.LoadFactor)
	}
	recs := make([]dastrace.Record, len(rc.Records))
	copy(recs, rc.Records)
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Submit < recs[b].Submit })

	s, err := newSimulation(cfg, pol, "replay", workload.NewArena())
	if err != nil {
		return ReplayResult{}, err
	}
	defer s.obs.SetClock(nil) // see Run
	s.source = recordedArrivals
	s.detail = newDetailStats(cfg) // for the quantiles and slowdown
	capacity := s.m.Capacity()
	for _, r := range recs {
		if r.Size <= 0 || r.Service <= 0 {
			return ReplayResult{}, fmt.Errorf("core: replay record %d has size %d, service %g", r.ID, r.Size, r.Service)
		}
		if r.Size > capacity {
			return ReplayResult{}, fmt.Errorf("core: replay record %d needs %d of %d processors", r.ID, r.Size, capacity)
		}
	}
	if rc.ScheduleWriter != nil {
		s.sched = bufio.NewWriter(rc.ScheduleWriter)
		fmt.Fprintln(s.sched, "id,size,components,arrival,start,finish,clusters")
	}
	s.startMeasuring(0)
	for _, r := range recs {
		j := s.spec.JobFromDraws(s.arena, r.Size, r.Service)
		j.ID = int64(r.ID)
		s.eng.Schedule(r.Submit/load, evArrival, j)
	}
	s.eng.Run()
	s.eng.ReportStats()

	if q := pol.Queued(); q > 0 {
		return ReplayResult{}, fmt.Errorf("core: replay ended with %d jobs stuck in queue", q)
	}
	if s.sched != nil {
		if err := s.sched.Flush(); err != nil {
			return ReplayResult{}, fmt.Errorf("core: writing schedule: %w", err)
		}
	}
	res := ReplayResult{
		Policy:         rc.Policy,
		Jobs:           int(s.respAll.N()),
		MeanResponse:   s.respAll.Mean(),
		MedianResponse: s.detail.quantiles.Q50.Value(),
		P95Response:    s.detail.quantiles.Q95.Value(),
		MeanSlowdown:   s.detail.slowdown.Mean(),
		// The run ends on the last departure; recs is sorted by submit
		// time, so the first arrival is recs[0]'s.
		Makespan: s.eng.Now() - recs[0].Submit/load,
		MaxQueue: s.maxQueue,
	}
	if res.Makespan > 0 {
		res.GrossUtilization = s.grossWork / (float64(capacity) * res.Makespan)
		res.NetUtilization = s.netWork / (float64(capacity) * res.Makespan)
	}
	return res, nil
}

// intsDash renders an int slice as dash-separated values (CSV-safe).
func intsDash(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, "-")
}
