package core

import (
	"fmt"
	"math"

	"coalloc/internal/cluster"
	"coalloc/internal/workload"
)

// BacklogConfig describes a closed-system run that measures the maximal
// utilization of a policy, following Section 4 of the paper: "we maintain
// a constant backlog and observe the time-average fraction of processors
// being busy, which yields the maximal gross utilization". The run keeps
// 64 jobs waiting at all times.
type BacklogConfig struct {
	// ClusterSizes, Spec, Policy, Fit, QueueWeights: as in Config.
	ClusterSizes []int
	Spec         workload.Spec
	Policy       string
	Fit          cluster.Fit
	QueueWeights []float64
	// Lookahead is the conservative-backfilling reservation bound (as in
	// Config.Lookahead; 0 = default).
	Lookahead int
	// WarmupTime and MeasureTime bound the run in virtual seconds.
	// Defaults: 50_000 and 500_000.
	WarmupTime, MeasureTime float64
	// Seed selects the random streams.
	Seed uint64
}

func (c *BacklogConfig) applyDefaults() {
	if c.WarmupTime == 0 {
		c.WarmupTime = 50_000
	}
	if c.MeasureTime == 0 {
		c.MeasureTime = 500_000
	}
}

// BacklogResult reports the maximal utilizations measured under constant
// backlog.
type BacklogResult struct {
	Policy string
	// MaxGrossUtilization is the time-average fraction of busy
	// processors, counting extended service times.
	MaxGrossUtilization float64
	// MaxNetUtilization removes the wide-area communication share using
	// the workload's gross/net ratio, as the paper does ("the maximal
	// net utilizations are then computed with the ratios between the
	// two types of utilization").
	MaxNetUtilization float64
	// Throughput is the measured departure rate in jobs per second.
	Throughput float64
	// Jobs is the number of departures in the measurement window.
	Jobs int
}

// RunBacklog executes a constant-backlog simulation: the simulation of Run
// fed by refilling the queue to backlogDepth jobs at t=0 and after every
// departure, with busy time and departures measured over the virtual-time
// window [WarmupTime, WarmupTime+MeasureTime].
func RunBacklog(bc BacklogConfig) (BacklogResult, error) {
	bc.applyDefaults()
	cfg := Config{
		ClusterSizes: bc.ClusterSizes,
		Spec:         bc.Spec,
		Policy:       bc.Policy,
		Fit:          bc.Fit,
		Lookahead:    bc.Lookahead,
		QueueWeights: bc.QueueWeights,
		// The window is set by virtual time; no departure count ever
		// starts the per-job measurement.
		WarmupJobs: math.MaxInt,
		Seed:       bc.Seed,
	}
	pol, err := cfg.checkShared()
	if err != nil {
		return BacklogResult{}, err
	}
	if err := cfg.checkSpec(); err != nil {
		return BacklogResult{}, err
	}
	if bc.WarmupTime < 0 || bc.MeasureTime < 0 {
		return BacklogResult{}, fmt.Errorf("core: backlog warmup %g s / measure %g s must be positive (or 0 for the default)",
			bc.WarmupTime, bc.MeasureTime)
	}
	s, err := newSimulation(cfg, pol, "backlog", workload.NewArena())
	if err != nil {
		return BacklogResult{}, err
	}
	s.source = backlogRefill
	s.refill()
	s.eng.RunUntil(bc.WarmupTime)
	// Only the busy integral and the departure count are measured. The
	// per-job response statistics startMeasuring would switch on report
	// nothing here and cost about a fifth of the run.
	s.busy.StartAt(s.eng.Now(), float64(s.m.Busy()))
	warm := s.finished
	s.eng.RunUntil(bc.WarmupTime + bc.MeasureTime)

	window := s.eng.Now() - bc.WarmupTime
	gross := s.busy.Average(s.eng.Now()) / float64(s.m.Capacity())
	jobs := s.finished - warm
	return BacklogResult{
		Policy:              bc.Policy,
		MaxGrossUtilization: gross,
		MaxNetUtilization:   gross / bc.Spec.GrossNetRatio(),
		Throughput:          float64(jobs) / window,
		Jobs:                jobs,
	}, nil
}
