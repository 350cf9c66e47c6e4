package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/obs"
	"coalloc/internal/plot"
	"coalloc/internal/workpool"
)

// TestScheduleModesRenderByteIdentical is the figure-level scheduling
// guardrail: a figure rendered under the figure-level schedule must
// produce report text and CSV data byte-identical to the serial sweep an
// attached Observer forces (obs.New(nil) discards its trace). The
// scheduler only changes which simulation runs when; every point is an
// independently seeded run and the merge consumes results per curve in
// grid order.
func TestScheduleModesRenderByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(serial bool) (string, string) {
		t.Helper()
		dir := t.TempDir()
		p := tinyParams()
		p.Utilizations = []float64{0.3, 0.9} // 0.9 saturates the GS curves
		p.DataDir = dir
		if serial {
			p.Observer = obs.New(nil)
		}
		env := NewEnv(p)
		out, err := Run("fig5", env)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return out, string(data)
	}
	refText, refCSV := run(true)
	text, csv := run(false)
	if text != refText {
		t.Errorf("figure text differs from serial:\n--- figure schedule ---\n%s\n--- serial ---\n%s", text, refText)
	}
	if csv != refCSV {
		t.Errorf("CSV differs from serial:\n--- figure schedule ---\n%s\n--- serial ---\n%s", csv, refCSV)
	}
}

// TestCurveSetModesMatch pins the same property at the API level:
// CurveSet under the figure-level schedule returns the same per-curve
// result sequences as the serial sweep.
func TestCurveSetModesMatch(t *testing.T) {
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95}
	curves := func(serial bool) [][]core.Result {
		t.Helper()
		p.Observer = nil
		if serial {
			p.Observer = obs.New(nil)
		}
		env := NewEnv(p)
		spec := env.MultiSpec(16, env.Derived.Sizes128)
		sets, err := env.CurveSet([]CurveSpec{
			{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sets
	}
	ref := curves(true)
	got := curves(false)
	if len(got) != len(ref) {
		t.Fatalf("%d curves, want %d", len(got), len(ref))
	}
	for c := range ref {
		if len(got[c]) != len(ref[c]) {
			t.Errorf("curve %d: %d points, want %d", c, len(got[c]), len(ref[c]))
			continue
		}
		for i := range ref[c] {
			// Sprintf covers every field (Result holds slices and
			// NaN-able floats, so == is unavailable and unwanted).
			a := fmt.Sprintf("%+v", got[c][i])
			b := fmt.Sprintf("%+v", ref[c][i])
			if a != b {
				t.Errorf("curve %d point %d differs:\n  figure: %s\n  serial: %s", c, i, a, b)
			}
		}
	}
}

// saturatePool holds every workpool slot until the returned function is
// called, so a workpool.Do started in the meantime recruits no worker and
// degrades to a serial loop on its caller. It relies on no other Do
// running concurrently, which holds because this package's tests are not
// parallel.
func saturatePool(t *testing.T) (release func()) {
	t.Helper()
	n := workpool.Size()
	var started sync.WaitGroup
	started.Add(n + 1) // n recruited workers plus the calling goroutine
	hold := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		workpool.Do(n+1, func(int) {
			started.Done()
			<-hold
		})
	}()
	all := make(chan struct{})
	go func() { started.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		t.Fatal("could not take every workpool slot")
	}
	return func() { close(hold); <-finished }
}

// TestRunSetStopsAtKnee pins runSet's claim order. With the pool
// saturated nothing is in flight when a point completes, so a curve whose
// first saturated (or failed) point is index k must call its point
// function exactly k+1 times: the stop marker cuts the past-knee points
// before they are claimed.
func TestRunSetStopsAtKnee(t *testing.T) {
	defer saturatePool(t)()
	grid := []float64{0, 1, 2, 3, 4, 5, 6, 7} // each point is its own index
	// curves builds one curve per knee; a point at or past its curve's
	// knee saturates, or fails with errSentinel when failAt says so.
	curves := func(knees []int, failAt map[int]bool) ([]curveJob, []int) {
		calls := make([]int, len(knees))
		jobs := make([]curveJob, len(knees))
		for c, knee := range knees {
			jobs[c] = curveJob{label: fmt.Sprint("c", c), grid: grid, fn: func(u float64) (core.Result, error) {
				calls[c]++
				if int(u) < knee {
					return core.Result{}, nil
				}
				if failAt[c] {
					return core.Result{}, errSentinel
				}
				return core.Result{Saturated: true}, nil
			}}
		}
		return jobs, calls
	}

	knees := []int{2, 5, 7, 0, len(grid)} // the last curve never saturates
	jobs, calls := curves(knees, nil)
	out, err := runSet(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, knee := range knees {
		want := min(knee+1, len(grid))
		if calls[c] != want {
			t.Errorf("curve %d (knee %d): point function called %d times, want %d", c, knee, calls[c], want)
		}
		if len(out[c]) != want {
			t.Errorf("curve %d (knee %d): %d results, want %d", c, knee, len(out[c]), want)
		}
	}

	knees = []int{6, 3, 1}
	jobs, calls = curves(knees, map[int]bool{1: true})
	if _, err := runSet(jobs, nil); err != errSentinel {
		t.Fatalf("runSet error %v, want the failing point's", err)
	}
	for c, knee := range knees {
		if calls[c] != knee+1 {
			t.Errorf("curve %d (knee %d, fails %v): point function called %d times, want %d",
				c, knee, c == 1, calls[c], knee+1)
		}
	}
}

// TestProgressEffectiveCount checks the sweep progress accounting after an
// early stop: once saturation ends a curve, the skipped points leave the
// denominator, so the final line reads n/n instead of stalling at n/total.
func TestProgressEffectiveCount(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	var buf strings.Builder
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95} // 0.9 saturates GS
	p.Progress = &buf
	p.Observer = obs.New(nil)
	env := NewEnv(p)
	cs := CurveSpec{
		Label:        "GS",
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	if _, err := env.Curve(cs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(1/3 points)") {
		t.Errorf("first point should report against the full grid:\n%s", out)
	}
	if !strings.Contains(out, "saturated (2/2 points)") {
		t.Errorf("saturating point should shrink the denominator to the effective count:\n%s", out)
	}
	if strings.Contains(out, "2/3") {
		t.Errorf("progress still reports the stale denominator after the early stop:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 2 {
		t.Errorf("expected 2 progress lines (the curve stops at its 2nd point), got %d:\n%s", lines, out)
	}
}

// TestProgressFigureModeCountsAllCurves checks the figure-level schedule
// reports one line per completed point across the whole job set and never
// prints a denominator below its numerator, even with points in flight
// when a curve's stop marker shrinks.
func TestProgressFigureModeCountsAllCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	// The progress mutex serializes all writes, so a plain Builder is safe.
	var buf strings.Builder
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95}
	p.Progress = &buf
	env := NewEnv(p)
	spec := env.MultiSpec(16, env.Derived.Sizes128)
	if _, err := env.CurveSet([]CurveSpec{
		{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
		{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
	}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var done, eff int
		open := strings.LastIndexByte(line, '(')
		if open < 0 {
			t.Errorf("malformed progress line %q", line)
			continue
		}
		if _, err := fmt.Sscanf(line[open:], "(%d/%d points)", &done, &eff); err != nil {
			t.Errorf("malformed progress line %q: %v", line, err)
			continue
		}
		if done > eff {
			t.Errorf("progress line %q: numerator exceeds denominator", line)
		}
	}
}

// TestRankSummaryCutoffInvariant pins the horizon-independence of the
// "max stable gross utilization" summary: the saturation cutoff changes a
// terminator point's partial measurements (it stops the diverging run
// early), but because rankSummary excludes the terminator from the stable
// rank, the summary must be byte-identical with the cutoff on and off.
func TestRankSummaryCutoffInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	panel := func(cutoff bool) (string, int) {
		t.Helper()
		p := tinyParams()
		p.MeasureJobs = 3000 // deep enough for the divergence monitor to fire
		p.Utilizations = []float64{0.3, 0.9, 0.95}
		p.SaturationCutoff = cutoff
		env := NewEnv(p)
		spec := env.MultiSpec(16, env.Derived.Sizes128)
		specs := []CurveSpec{
			{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
		}
		sets, err := env.CurveSet(specs)
		if err != nil {
			t.Fatal(err)
		}
		truncated := 0
		series := make([]plot.Series, len(specs))
		for i := range specs {
			for _, res := range sets[i] {
				truncated += res.TruncatedJobs
			}
			series[i] = env.series(specs[i].Label, sets[i])
		}
		return rankSummary(series), truncated
	}
	full, fullTrunc := panel(false)
	cut, cutTrunc := panel(true)
	if fullTrunc != 0 {
		t.Fatalf("cutoff off truncated %d jobs", fullTrunc)
	}
	if cutTrunc == 0 {
		t.Fatal("cutoff on truncated nothing; the invariance check is vacuous")
	}
	if cut != full {
		t.Errorf("rank summary depends on the cutoff:\n  cutoff on:  %s  cutoff off: %s", cut, full)
	}
}
