package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coalloc/internal/obs"
)

// setupWarm is the number of extra set-ups timed before the measured
// runs, so setup_s is a median over enough samples to be steady.
const setupWarm = 30

// seedStride separates the seeds of successive untraced runs: run i uses
// seed + i*seedStride, so a benchmark run averages over several inputs
// (how much work a figure takes depends on where its curves saturate,
// which varies with the seed) while the inputs stay a function of -seed.
// The stride keeps the replication seeds of different runs (seed, seed+1,
// seed+2) apart.
const seedStride = 1000003

// runSeed is the workload seed of untraced run i.
func runSeed(seed uint64, i int) uint64 { return seed + uint64(i)*seedStride }

// sample is one timed run of a workload.
type sample struct {
	wall, cpu        float64 // seconds
	rssMB            float64 // peak resident set size during the run
	allocMB, mallocs float64
	out              outcome
}

// timed runs f once, measuring wall time, process CPU time (user+sys),
// peak RSS and heap allocation. It first returns the previous runs' memory
// to the OS and resets the RSS high-water mark, so each run starts from
// the same state, as a fresh process would.
func timed(f func() outcome) sample {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out := f()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	rss := peakRSSMB()
	runtime.ReadMemStats(&m1)
	return sample{
		wall:    wall,
		cpu:     cpu,
		rssMB:   rss,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		out:     out,
	}
}

// setupTimed times one set-up, after a collection so that garbage left by
// earlier set-ups does not land in its time.
func setupTimed(w workloadDef, seed uint64) (instance, float64) {
	runtime.GC()
	t0 := time.Now()
	inst := w.setup(seed)
	return inst, time.Since(t0).Seconds()
}

// measure runs the workload untraced, on the seeds runSeed(seed, 0),
// runSeed(seed, 1), ..., until about seconds have passed (stopping when
// half another run would overshoot, and after at least one run), then —
// when traced — runs the first seed once more with an Observer and a CPU
// profile. It checks every run's output and returns the report.
func measure(w workloadDef, seed uint64, seconds int, traced bool, log io.Writer) (report, error) {
	var setups []float64
	for i := 0; i < setupWarm; i++ {
		_, d := setupTimed(w, seed)
		setups = append(setups, d)
	}
	var runs []sample
	chk := newChecker(w.name, log)
	start := time.Now()
	for i := 0; ; i++ {
		inst, d := setupTimed(w, runSeed(seed, i))
		setups = append(setups, d)
		r := timed(func() outcome { return inst.run(nil) })
		runs = append(runs, r)
		chk.add(runSeed(seed, i), r.out)
		fmt.Fprintf(log, "perfbench: %s seed %d: wall %.3f s, cpu %.3f s, output digest %s\n",
			w.name, runSeed(seed, i), r.wall, r.cpu, r.out.digest)
		if time.Since(start).Seconds()+r.wall/2 >= float64(seconds) {
			break
		}
	}
	each := func(f func(sample) float64) float64 {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = f(r)
		}
		return median(vs)
	}

	vals := map[string]float64{}
	if !traced {
		vals["wall_s"] = each(func(s sample) float64 { return s.wall })
		vals["cpu_s"] = each(func(s sample) float64 { return s.cpu })
		vals["peak_rss_mb"] = each(func(s sample) float64 { return s.rssMB })
		vals["setup_s"] = median(setups)
		vals["ops_ok_frac"] = 1 - float64(chk.failed)/float64(chk.attempted)
		ms, err := fill(endToEnd, vals)
		return chk.report(ms), err
	}

	// Sweep scheduling and per-call spans come from the untraced runs.
	procs := float64(runtime.GOMAXPROCS(0))
	vals["experiments.points_run"] = each(func(s sample) float64 { return float64(len(s.out.stamps)) })
	vals["experiments.points_saturated"] = each(func(s sample) float64 {
		n := 0
		for _, st := range s.out.stamps {
			if st.saturated {
				n++
			}
		}
		return float64(n)
	})
	vals["experiments.straggler_tail_s"] = each(func(s sample) float64 {
		st := s.out.stamps
		if len(st) < 2 {
			return 0
		}
		return st[len(st)-1].at.Sub(st[len(st)-2].at).Seconds()
	})
	vals["workpool.busy_frac"] = each(func(s sample) float64 { return s.cpu / (s.wall * procs) })
	for _, span := range []string{"replay", "backlog", "open_faulted"} {
		vals["core."+span+"_s"] = each(func(s sample) float64 { return s.out.spans[span] })
	}
	vals["runtime.alloc_mb"] = each(func(s sample) float64 { return s.allocMB })
	vals["runtime.mallocs"] = each(func(s sample) float64 { return s.mallocs })

	// The traced run repeats the first seed: counters from the Observer,
	// per-point durations from the (now serial) progress stamps, self
	// time from the profile.
	inst, _ := setupTimed(w, seed)
	prof, err := os.CreateTemp(workDir, "cpu-*.prof")
	if err != nil {
		return report{}, err
	}
	defer os.Remove(prof.Name())
	o := obs.New(nil)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close() //detlint:ignore closecheck error path: the profiling failure being returned supersedes any close error
		return report{}, err
	}
	tr := timed(func() outcome { return inst.run(o) })
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return report{}, err
	}
	chk.add(seed, tr.out)

	durs := pointDurations(tr.out)
	vals["experiments.point_n"] = float64(len(durs))
	vals["experiments.point_p50_s"] = quantile(durs, 0.50)
	vals["experiments.point_p95_s"] = quantile(durs, 0.95)
	// Figure scheduling runs a superset of the serial schedule's points:
	// the difference is the work done past each curve's first saturated
	// point.
	vals["experiments.points_wasted"] = max(0, float64(len(runs[0].out.stamps)-len(durs)))
	vals["trace.overhead_cpu_s"] = tr.cpu - runs[0].cpu
	vals["obs.trace_bytes"] = float64(tr.out.traceBytes)

	c := sumCounters(tr.out.observers)
	for k, v := range c {
		vals[k] = v
	}
	vals["core.ns_per_event"] = ratio(tr.cpu*1e9, c["sim.events"])

	top, err := profileTopOf(prof.Name())
	if err != nil {
		return report{}, err
	}
	for _, p := range profiledPackages {
		vals[p+".self_cpu_share"] = top.selfShare("coalloc/internal/" + p)
	}
	vals["runtime.gc_cpu_share"] = top.cumShare("runtime.gcBgMarkWorker") + top.cumShare("runtime.gcAssistAlloc")
	vals["dist.fingerprint_cpu_share"] = top.cumShare("coalloc/internal/dist.fnvUint64")

	ms, err := fill(perLayer, vals)
	return chk.report(ms), err
}

// pointDurations turns the serial traced run's completion stamps into
// per-point durations.
func pointDurations(o outcome) []float64 {
	var out []float64
	prev := o.start
	for _, st := range o.stamps {
		out = append(out, st.at.Sub(prev).Seconds())
		prev = st.at
	}
	return out
}

// counterNames maps the benchmark's work-counter names to the Observer
// counters they sum.
var counterNames = map[string]string{
	"core.jobs_simulated":          "jobs.departures",
	"core.truncated_jobs":          "run.truncated_jobs",
	"core.saturation_cutoffs":      "run.saturation_cutoffs",
	"sim.events":                   "sim.events",
	"sim.scheduled":                "sim.scheduled",
	"policies.passes":              "sched.passes",
	"policies.passes_skipped":      "sched.passes_skipped",
	"policies.passes_repaired":     "sched.passes_repaired",
	"policies.head_misses":         "sched.head_misses",
	"policies.backfill_attempts":   "sched.backfill.attempts",
	"policies.lookahead_truncated": "sched.lookahead_truncated",
	"queues.enables":               "queues.enables",
	"queues.disables":              "queues.disables",
	"dectrace.decisions":           "sched.decisions",
	"faults.kills":                 "faults.kills",
	"faults.resubmits":             "faults.resubmits",
}

// sumCounters snapshots the work counters of the given observers (summed)
// and derives the ratios. The pool hit rate is the first observer's
// gauge, which holds its last simulation's value.
func sumCounters(observers []*obs.Observer) map[string]float64 {
	out := map[string]float64{}
	var bfSuccess, depth float64
	for _, o := range observers {
		for name, counter := range counterNames {
			out[name] += float64(o.Metrics.Counter(counter).Value())
		}
		bfSuccess += float64(o.Metrics.Counter("sched.backfill.successes").Value())
		depth = max(depth, o.Metrics.Gauge("queues.depth").Max())
	}
	out["queues.depth_max"] = depth
	out["policies.skip_ratio"] = ratio(out["policies.passes_skipped"], out["policies.passes"])
	out["policies.backfill_yield"] = ratio(bfSuccess, out["policies.backfill_attempts"])
	out["sim.pool_hit_rate"] = 0
	if len(observers) > 0 {
		out["sim.pool_hit_rate"] = observers[0].Metrics.Gauge("sim.pool.hit_rate").Value()
	}
	return out
}

// checker counts the attempted and failed operations over every run of
// one workload. A run fails whole when its output fails the sanity
// check, differs from the recorded reference for its seed, or differs
// from an earlier run at the same seed (the serial traced schedule must
// reproduce the parallel one bit for bit).
type checker struct {
	name              string
	first             map[uint64]outcome
	attempted, failed int
	log               io.Writer
}

func newChecker(name string, log io.Writer) *checker {
	return &checker{name: name, first: map[uint64]outcome{}, log: log}
}

func (c *checker) add(seed uint64, o outcome) {
	c.attempted += o.ops
	bad := o.check
	ref := references[c.name][seed]
	prev, seen := c.first[seed]
	switch {
	case bad != nil:
	case ref != "" && o.digest != ref:
		bad = fmt.Errorf("seed %d: output digest %s differs from the reference %s", seed, o.digest, ref)
	case seen && (o.digest != prev.digest || o.traceDigest != prev.traceDigest):
		bad = fmt.Errorf("seed %d: output digest %s/%s differs from the first run's %s/%s",
			seed, o.digest, o.traceDigest, prev.digest, prev.traceDigest)
	}
	if !seen {
		c.first[seed] = o
	}
	if bad != nil {
		fmt.Fprintf(c.log, "perfbench: %s check failed: %v\n", c.name, bad)
		c.failed += o.ops
		return
	}
	c.failed += o.failed
}

func (c *checker) report(ms map[string]metric) report {
	return report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: ms}
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// resetPeakRSS resets the kernel's RSS high-water mark of the process
// (Linux 4.0 and later); where that fails, peakRSSMB reports the peak of
// the whole process lifetime instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's peak resident set size since resetPeakRSS:
// VmHWM from /proc/self/status, else ru_maxrss (both in KiB).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median of vs (0 for none).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the linearly interpolated q-quantile of vs (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// profileTopOf renders a CPU profile with `go tool pprof -top` and parses
// the listing.
func profileTopOf(path string) (profileTop, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return profileTop{}, err
	}
	text, err := pprofTop(abs)
	if err != nil {
		return profileTop{}, err
	}
	return parseTop(text)
}
