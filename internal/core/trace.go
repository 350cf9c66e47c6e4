package core

import (
	"fmt"
	"math"
	"sync"

	"coalloc/internal/rng"
	"coalloc/internal/workload"
)

// Trace is a compact record of the workload one replication would sample:
// per job, the absolute arrival time, the total size, the net service
// time, and the routed local queue. Sizes are stored as int16 and queues
// as uint8, 19 B per job, because a sweep's trace cache holds tens of
// traces of tens of thousands of jobs each. A sweep generates it once per
// (seed, utilization) point and replays it into every policy's run — the
// paper's methodology of comparing all policies on the same workload
// (common random numbers), and a large saving when four-plus policies
// would otherwise regenerate identical jobs.
//
// The record is append-only with an immutable prefix: policies consume
// different numbers of arrivals before their measurement windows close,
// so the trace extends itself lazily, in chunks, under a mutex. Already
// published entries never change, and ensure hands out snapshot slice
// headers, so concurrent runs (parallel replications, parallel sweep
// points) share one trace without locking on the read path.
//
// Bit-identity with live sampling holds by construction: the generator
// draws from streams with the same names ("core/arrivals", "core/sizes",
// "core/services", "core/routing") and seed as the live run, in the same
// per-stream order, and accumulates arrival times with the same
// floating-point additions the event clock would perform. Consumption
// rebuilds each job through workload.Spec.JobFromDraws — the same
// arithmetic live sampling uses. TestSharedTraceMatchesSampling and the
// experiments-level sweep guardrail pin this.
type Trace struct {
	seed uint64
	rate float64

	mu       sync.Mutex
	arrivals []float64
	sizes    []int16
	services []float64
	queues   []uint8

	spec        workload.Spec
	routeCDF    []float64
	arrivalsRng *rng.Stream
	sizesRng    *rng.Stream
	servicesRng *rng.Stream
	routeRng    *rng.Stream
	lastArrival float64
}

// traceChunk is the growth granularity of the lazy extension.
const traceChunk = 4096

// NewTrace prepares the workload trace one replication of cfg would
// sample at the given seed. Entries are generated on demand; building a
// Trace is cheap. Only Unordered requests can be traced — the other
// request types draw placement randomness interleaved with scheduling —
// and only when every job size fits an int16 and every queue index a
// uint8; a trace provider falls back to live sampling otherwise.
func NewTrace(cfg Config, seed uint64) (*Trace, error) {
	if cfg.RequestType != workload.Unordered {
		return nil, fmt.Errorf("core: workload traces support unordered requests, not %s", cfg.RequestType)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("core: trace arrival rate %g must be positive", cfg.ArrivalRate)
	}
	if m := cfg.Spec.Sizes.Max(); m > math.MaxInt16 {
		return nil, fmt.Errorf("core: trace job sizes up to %d do not fit an int16", m)
	}
	routeCDF := routingCDF(cfg.QueueWeights, len(cfg.ClusterSizes))
	if len(routeCDF) > math.MaxUint8+1 {
		return nil, fmt.Errorf("core: trace routes to %d queues, more than a uint8 indexes", len(routeCDF))
	}
	src := rng.NewSource(seed)
	return &Trace{
		seed:        seed,
		rate:        cfg.ArrivalRate,
		spec:        cfg.Spec,
		routeCDF:    routeCDF,
		arrivalsRng: src.Stream("core/arrivals"),
		sizesRng:    src.Stream("core/sizes"),
		servicesRng: src.Stream("core/services"),
		routeRng:    src.Stream("core/routing"),
	}, nil
}

// ensure extends the trace to cover at least index k and returns snapshot
// slice headers. The returned slices are append-only prefixes: their
// contents never change after publication, so callers may read them
// without holding the lock.
func (t *Trace) ensure(k int) (arrivals []float64, sizes []int16, services []float64, queues []uint8) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.arrivals) <= k {
		target := len(t.arrivals) + traceChunk
		for len(t.arrivals) < target {
			// Mirrors one live arrival: the event clock adds each Exp
			// interarrival to the previous arrival's timestamp.
			t.lastArrival += t.arrivalsRng.Exp(t.rate)
			t.arrivals = append(t.arrivals, t.lastArrival)
			t.sizes = append(t.sizes, int16(t.spec.Sizes.Sample(t.sizesRng)))
			t.services = append(t.services, t.spec.Service.Sample(t.servicesRng))
			q := 0
			if len(t.routeCDF) > 1 {
				u := t.routeRng.Float64()
				q = len(t.routeCDF) - 1
				for i, c := range t.routeCDF {
					if u < c {
						q = i
						break
					}
				}
			}
			t.queues = append(t.queues, uint8(q))
		}
	}
	return t.arrivals, t.sizes, t.services, t.queues
}

// matches reports whether the trace was generated for this configuration
// point; Run refuses mismatched traces instead of silently simulating a
// different workload.
func (t *Trace) matches(cfg Config) error {
	if t.seed != cfg.Seed {
		return fmt.Errorf("core: trace generated for seed %d, run wants %d", t.seed, cfg.Seed)
	}
	if t.rate != cfg.ArrivalRate {
		return fmt.Errorf("core: trace generated at arrival rate %g, run wants %g", t.rate, cfg.ArrivalRate)
	}
	return nil
}

// traceCursor is one run's read position in a shared trace. It holds
// snapshot slice headers so the steady-state read path touches no lock:
// refresh (which does lock) runs only when the run outpaces the
// already-generated prefix.
type traceCursor struct {
	tr       *Trace
	arrivals []float64
	sizes    []int16
	services []float64
	queues   []uint8
}

func newTraceCursor(tr *Trace) *traceCursor {
	c := &traceCursor{tr: tr}
	c.refresh(0)
	return c
}

func (c *traceCursor) refresh(k int) {
	c.arrivals, c.sizes, c.services, c.queues = c.tr.ensure(k)
}

// at returns entry k, extending the trace as needed.
func (c *traceCursor) at(k int) (arrival float64, total int, svc float64, queue int) {
	if k >= len(c.arrivals) {
		c.refresh(k)
	}
	return c.arrivals[k], int(c.sizes[k]), c.services[k], int(c.queues[k])
}

// routingCDF normalizes queue weights (nil = balanced over n queues) into
// the cumulative distribution the routing draw walks. Factored out so the
// live simulation and the trace generator share the identical arithmetic
// — the CDF values must be bit-equal for the routing draws to agree.
func routingCDF(weights []float64, n int) []float64 {
	if weights == nil {
		weights = Balanced(n)
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	cdf := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / wsum
		cdf[i] = acc
	}
	return cdf
}
