package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every declared metric's name and unit against
// the charsets BENCHMARK.json allows, and that BENCHMARK.json declares
// exactly the metrics the benchmark emits, with the same units.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, bad := range []string{"wall s", "p95(s)", "_lead", "a/b", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name pattern accepts %q", bad)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []declared, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json %s: %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("BENCHMARK.json %s[%d] = %+v, want %s %s %s", kind, i, g, w.name, w.unit, w.better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestFillRejectsMismatch: the report must carry exactly the declared
// metrics.
func TestFillRejectsMismatch(t *testing.T) {
	vals := map[string]float64{}
	for _, m := range endToEnd {
		vals[m.name] = 1
	}
	if _, err := fill(endToEnd, vals); err != nil {
		t.Fatalf("complete set: %v", err)
	}
	vals["extra"] = 1
	if _, err := fill(endToEnd, vals); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(vals, "extra")
	delete(vals, "wall_s")
	if _, err := fill(endToEnd, vals); err == nil {
		t.Error("missing metric accepted")
	}
}

func TestParseTop(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	top, err := parseTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if top.total != 1 {
		t.Errorf("total = %g s, want 1", top.total)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", what, got, want)
		}
	}
	// The generic instantiation's argument names another package; it
	// must still count for stats.
	near("stats self", top.selfShare("coalloc/internal/stats"), 0.34)
	near("sim self", top.selfShare("coalloc/internal/sim"), 0.20)
	near("policies self", top.selfShare("coalloc/internal/policies"), 0.17)
	near("queues self (inline row)", top.selfShare("coalloc/internal/queues"), 0.10)
	near("dist self", top.selfShare("coalloc/internal/dist"), 0.10)
	near("faults self (absent)", top.selfShare("coalloc/internal/faults"), 0)
	near("fnvUint64 cum", top.cumShare("coalloc/internal/dist.fnvUint64"), 0.08)
	near("gc cum", top.cumShare("runtime.gcBgMarkWorker")+top.cumShare("runtime.gcAssistAlloc"), 0.15)

	if _, err := parseTop("no listing here\n"); err == nil {
		t.Error("empty listing accepted")
	}
}

func TestParseAmount(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10ms": 0.01, "2450.5ms": 2.4505} {
		got, err := parseAmount(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseAmount(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "ms", "12", "1.2s", "1.2x"} {
		if _, err := parseAmount(bad); err == nil {
			t.Errorf("parseAmount(%q) accepted", bad)
		}
	}
}

// TestReferencesMatchCommittedResults ties the seed-1 sweep references to
// the committed CSVs they stand for.
func TestReferencesMatchCommittedResults(t *testing.T) {
	for _, name := range []string{"fig3", "backfill"} {
		data, err := os.ReadFile(filepath.Join("..", "results", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digest(data), references[name][1]; got != want {
			t.Errorf("results/%s.csv digest %s, reference %s", name, got, want)
		}
		if err := checkCSV(data, workloadSeries(t, name)); err != nil {
			t.Errorf("results/%s.csv: %v", name, err)
		}
	}
}

func workloadSeries(t *testing.T, name string) int {
	t.Helper()
	return workloads[name].setup(1).(*sweepRun).series
}

// TestPerturbedOutputFails: a CSV that differs from the reference by one
// digit, or one that is malformed, fails every op of its run.
func TestPerturbedOutputFails(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "results", "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	good := outcome{digest: digest(data), ops: 300}

	perturbed := bytes.Replace(data, []byte("128.97113036582562"), []byte("128.97113036582563"), 1)
	if bytes.Equal(perturbed, data) {
		t.Fatal("fixture value not found in results/fig3.csv")
	}
	if err := checkCSV(perturbed, 24); err != nil {
		t.Fatalf("a plausible perturbation must pass the sanity check (the digest catches it): %v", err)
	}
	c := newChecker("fig3", &bytes.Buffer{})
	c.add(1, good)
	c.add(1, outcome{digest: digest(perturbed), ops: 300})
	if c.attempted != 600 || c.failed != 300 {
		t.Errorf("reference seed: attempted %d failed %d, want 600 and 300", c.attempted, c.failed)
	}

	// At a seed without a reference, a run that disagrees with the first
	// one fails.
	c = newChecker("fig3", &bytes.Buffer{})
	c.add(99, good)
	c.add(99, outcome{digest: digest(perturbed), ops: 300})
	if c.failed != 300 || c.report(nil).Correct {
		t.Errorf("run-to-run mismatch: failed %d, want 300 and not correct", c.failed)
	}

	malformed := bytes.Replace(data, []byte("128.97113036582562"), []byte("-1"), 1)
	if err := checkCSV(malformed, 24); err == nil {
		t.Error("negative response time passed the sanity check")
	}
	if err := checkCSV(data, 23); err == nil {
		t.Error("wrong series count passed the sanity check")
	}
	c = newChecker("fig3", &bytes.Buffer{})
	c.add(99, outcome{digest: digest(malformed), ops: 300, check: checkCSV(malformed, 24)})
	if c.failed != 300 {
		t.Errorf("malformed CSV: failed %d, want 300", c.failed)
	}
}

func TestStampWriter(t *testing.T) {
	w := &stampWriter{}
	for _, line := range []string{
		"GS: util 0.50 -> response 812 s (3/18 points)\n",
		"GS: util 0.90 saturated (4/9 points)\n",
		"LS: util 0.10 failed: core: boom\n",
	} {
		if _, err := w.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	st := w.all()
	if len(st) != 3 || st[0].saturated || st[0].failed || !st[1].saturated || !st[2].failed {
		t.Errorf("stamps = %+v", st)
	}
	base := time.Unix(100, 0)
	d := pointDurations(outcome{start: base, stamps: []stamp{{at: base.Add(time.Second)}, {at: base.Add(3 * time.Second)}}})
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Errorf("pointDurations = %v, want [1 2]", d)
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(vs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
	if vs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
