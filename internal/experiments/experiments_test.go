package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/plot"
)

// tinyParams keeps integration runs fast while still exercising the full
// pipeline.
func tinyParams() Params {
	p := QuickParams()
	p.WarmupJobs = 100
	p.MeasureJobs = 800
	p.Utilizations = []float64{0.2, 0.4, 0.6}
	p.BacklogWarmup = 5000
	p.BacklogMeasure = 30000
	return p
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"backfill", "checkpoint", "discipline", "extsweep", "faults", "fig1",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fits", "ratio", "reenable",
		"regret", "reqtypes", "sizeclasses", "table1", "table2", "table3", "workload"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("experiment %s lacks a description", n)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	env := NewEnv(tinyParams())
	if _, err := Run("nope", env); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCheapExperimentsRender(t *testing.T) {
	env := NewEnv(tinyParams())
	expect := map[string][]string{
		"table1":   {"Table 1", "0.190"},
		"table2":   {"Table 2", "paper"},
		"fig1":     {"Fig. 1", "64"},
		"fig2":     {"Fig. 2", "900"},
		"ratio":    {"gross/net", "1.2"},
		"workload": {"DAS-s-128", "DAS-t-900"},
	}
	for name, wants := range expect {
		out, err := Run(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q", name, w)
			}
		}
	}
}

func TestFig3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("fig3", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"limit 16", "limit 24", "limit 32", "balanced", "unbalanced", "SC", "LS", "GS", "LP"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig3 output missing %q", w)
		}
	}
}

func TestFig4Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	env := NewEnv(p)
	out, err := Run("fig4", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"local avg", "global avg", "gross util", "net util", "LP"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig4 output missing %q", w)
		}
	}
}

func TestFig5Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("fig5", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"SC 64", "SC 128", "LS 64", "LS 128"} {
		if !strings.Contains(out, w) {
			t.Errorf("fig5 output missing %q", w)
		}
	}
}

func TestFig6And7Render(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	env := NewEnv(p)
	out6, err := Run("fig6", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"LS 16", "LS 24", "LS 32", "GS 16"} {
		if !strings.Contains(out6, w) {
			t.Errorf("fig6 output missing %q", w)
		}
	}
	out7, err := Run("fig7", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"gross", "net", "ratio"} {
		if !strings.Contains(out7, w) {
			t.Errorf("fig7 output missing %q", w)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("table3", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Table 3", "16", "24", "32", "SC reference"} {
		if !strings.Contains(out, w) {
			t.Errorf("table3 output missing %q", w)
		}
	}
}

func TestCurveStopsAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.9, 0.95} // 0.9 saturates GS
	env := NewEnv(p)
	cs := CurveSpec{
		Label:        "GS",
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	s, err := env.Curve(cs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("curve has %d points; the sweep should stop at the first saturated point", s.Len())
	}
}

func TestSaveCSVWritesFiles(t *testing.T) {
	dir := t.TempDir()
	p := tinyParams()
	p.DataDir = dir
	env := NewEnv(p)
	if _, err := Run("fig1", env); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y") {
		t.Errorf("CSV header missing: %q", string(data[:20]))
	}
}

func TestDefaultAndQuickParams(t *testing.T) {
	d := DefaultParams()
	q := QuickParams()
	if d.MeasureJobs <= q.MeasureJobs {
		t.Error("default params should be heavier than quick")
	}
	if len(d.Utilizations) == 0 || d.Utilizations[0] != 0.10 {
		t.Errorf("default grid %v", d.Utilizations)
	}
	last := d.Utilizations[len(d.Utilizations)-1]
	if last < 0.9 || last > 0.96 {
		t.Errorf("default grid ends at %g", last)
	}
}

func TestBalanceName(t *testing.T) {
	if balanceName(nil) != "balanced" || balanceName([]float64{2, 1}) != "unbalanced" {
		t.Error("balance names")
	}
}

// runPoints runs fn over the grid of a single curve on the shared
// workpool and returns results in grid order — runSet for one curve.
func runPoints(grid []float64, fn func(util float64) (core.Result, error)) ([]core.Result, error) {
	out, err := runSet([]curveJob{{grid: grid, fn: fn}}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func TestRunPointsOrderAndErrors(t *testing.T) {
	env := NewEnv(tinyParams())
	cs := CurveSpec{
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	grid := []float64{0.2, 0.3, 0.4}
	results, err := runPoints(grid, func(u float64) (core.Result, error) {
		return env.point(cs, u)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(grid) {
		t.Fatalf("%d results for %d points", len(results), len(grid))
	}
	// Results are in grid order: offered load increases monotonically.
	for i := 1; i < len(results); i++ {
		if results[i].OfferedGross <= results[i-1].OfferedGross {
			t.Errorf("results out of grid order: %v then %v",
				results[i-1].OfferedGross, results[i].OfferedGross)
		}
	}
	// Errors propagate.
	_, err = runPoints(grid, func(u float64) (core.Result, error) {
		if u == 0.3 {
			return core.Result{}, errSentinel
		}
		return core.Result{}, nil
	})
	if err != errSentinel {
		t.Errorf("error not propagated: %v", err)
	}
}

var errSentinel = errors.New("sentinel")

func TestParallelSweepMatchesSerial(t *testing.T) {
	// The parallel sweep must produce byte-identical curves to a serial
	// evaluation of the same points (each point is an independent,
	// seeded simulation).
	env := NewEnv(tinyParams())
	cs := CurveSpec{
		Label:        "GS",
		Policy:       "GS",
		ClusterSizes: MulticlusterSizes,
		Spec:         env.MultiSpec(16, env.Derived.Sizes128),
	}
	par, err := env.Curve(cs)
	if err != nil {
		t.Fatal(err)
	}
	var serial plot.Series
	for _, u := range env.Utilizations {
		res, err := env.point(cs, u)
		if err != nil {
			t.Fatal(err)
		}
		serial.Add(res.GrossUtilization, res.MeanResponse)
		if res.Saturated || res.MeanResponse > env.ResponseCap {
			break
		}
	}
	if par.Len() != serial.Len() {
		t.Fatalf("parallel %d points, serial %d", par.Len(), serial.Len())
	}
	for i := range serial.X {
		if par.X[i] != serial.X[i] || par.Y[i] != serial.Y[i] {
			t.Fatalf("point %d differs: (%g,%g) vs (%g,%g)",
				i, par.X[i], par.Y[i], serial.X[i], serial.Y[i])
		}
	}
}

func TestAblationsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	p.BacklogWarmup = 2000
	p.BacklogMeasure = 10000
	env := NewEnv(p)
	expect := map[string][]string{
		"reqtypes":    {"unordered", "ordered", "flexible", "total"},
		"fits":        {"WF", "FF", "BF"},
		"extsweep":    {"1.00", "1.25", "1.50", "SC reference"},
		"reenable":    {"disable order", "fixed order"},
		"backfill":    {"GS-EASY", "GS-CONS", "SC-EASY"},
		"discipline":  {"FCFS", "SPF", "EASY"},
		"sizeclasses": {"65-128", "SC", "LS"},
	}
	for name, wants := range expect {
		out, err := Run(name, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q", name, w)
			}
		}
	}
}

func TestDegradationRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("faults", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		"degradation under processor failures",
		"MTTR 900 s",
		"fail/hr", "kills", "avail",
		"GS", "LS", "LP",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("degradation output missing %q", w)
		}
	}
	// The grid's fault-free anchor point must be present.
	if !strings.Contains(out, "0.00") {
		t.Error("degradation output missing the zero-failure-rate row")
	}
}

// TestCheckpointRenders runs the checkpoint-interval sweep at test fidelity
// and checks the report carries both policies, the no-checkpointing
// baseline, and the saved-work accounting.
func TestCheckpointRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	env := NewEnv(tinyParams())
	out, err := Run("checkpoint", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		"work lost vs checkpoint interval",
		"MTBF 1000 s", "MTTR 900 s",
		"saved(proc-s)", "lost/kill",
		"GS-EASY", "GS-CONS",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("checkpoint output missing %q", w)
		}
	}
}

// allOutputDigests pins what All renders and writes at the preset of
// TestAllRunsEveryExperiment: the SHA-256 of each experiment's section of
// the text ("text/<name>") and of each CSV ("csv/<file>"). The digests were
// recorded before sweep points stopped keeping the detail statistics
// (core.Config.SummaryOnly), so an experiment that reads a statistic its
// points no longer keep renders "-" or NaN where a number was and fails
// here by name.
var allOutputDigests = map[string]string{
	"csv/backfill.csv":   "e3324d94179ef6bb56b382c05357557d3a36fbf009bfa7304bc11d0eb91bfb94",
	"csv/checkpoint.csv": "66c33bf9824f66968b721f8c39353023bf103edb8e4ca8d07e2fb3654b8ab026",
	"csv/discipline.csv": "36bd12fd9c68dad41b7a18736dec2d619c981e4245a505cf89051f98f9340e20",
	"csv/faults.csv":     "6b5a8b8af831d32e9f94c1c6846c50fbeae680347b9294c9916acdbd4f001edf",
	"csv/fig1.csv":       "7d842e377f7248675141f947f6191a5a968ee698ea227c50349782cf7b926142",
	"csv/fig2.csv":       "e8fd572ddfd3b2eee47dc49e6067f4eee9a098286192639e0658ed2aca5fac0b",
	"csv/fig3.csv":       "2a8d5fe883cbd1ef7e661229624bdd05e70e88ef8c15476ceac79568ec77ca27",
	"csv/fig5.csv":       "cbfe8542983344945477066410ed0135d37229714f8abd249c76155a04ee66a2",
	"csv/fig6.csv":       "d4a0ebdf6ef4e66d99d02c82cc244316b27d2dd41fc5e59335f1f11d8dcce50d",
	"csv/fig7.csv":       "38e3cffe21790c67fd0f241b047c070caef0ea43e4b354107eefde23828e74f2",
	"csv/fits.csv":       "4ac0bc188b6a3356c1766b2751ca24921720c47eaaf8d047c4706f7ab9e403c8",
	"csv/regret.csv":     "1ad944a741e6f8beea92b8b7a8ec3d2602b3899c2378da540bc5d640cc01a348",
	"csv/reqtypes.csv":   "ecf7927fa4d7eb8612a5348ca9bca202b2c6cb5eebd066f779c403ad11fabac4",
	"text/backfill":      "084d13ffa1c62c4e8a096bdf66bfe2b0151668880ee1fb3f4dea40f0fba5c6bf",
	"text/checkpoint":    "4db686e8ad2718dadc75470e802caadc9ed1008fd58497793dce9739f454aba8",
	"text/discipline":    "c83d79514fb4ac0d3734fa3e35999e97a1f3effabd70d46e7f1022b439493a98",
	"text/extsweep":      "c05901430db50afa221e3d9536b8b8d25dac300dcefb04da41b5e1d27fdef31a",
	"text/faults":        "b3560c25be23c5a328bcae15949ae853fc0e735bac518ea268c80cbe03e84523",
	"text/fig1":          "2f40fcb7ec9c8c1e60798ca38e02c312646fe845c5031a8582b9b3b6d110e425",
	"text/fig2":          "f16288f39806c5b3a3d6c634d8571aa74e65ad1a17b3e7b636874bab8feb9d08",
	"text/fig3":          "b9584c838103d9d679f7ef474d89dfb4bbd24526afcbc187417b38ebd63301aa",
	"text/fig4":          "8c8f8b8593b0730917960ea844dd50cd312bfb3873d62f92bc8c0671a469ee94",
	"text/fig5":          "8f77d1d2f33aee4ff0e88d59ae32642d9c8b47b869a327a58e94e0c5b5bc6dc3",
	"text/fig6":          "9fd15082daa55c3bf43e9bb0683dcfb659a9efad7a5c6f990268d38e05c0f9cd",
	"text/fig7":          "47b086c4830f2c5411e1d3a0ca6b7afb05995a9dae537dfcfa49cdc77ddd398a",
	"text/fits":          "23099d5c0da0c807e92c3f9bdaf712731cc6779945c481b32fd16ca83c4d99f0",
	"text/ratio":         "f706b6da1f11a73c5a68b4b9f711572efd924757107526c3f7fef4cd7bd6cc8f",
	"text/reenable":      "6d2c149ab445d5caf1789e0ea1dbfac32e58e182e27a35fb90cb0cc44065bbfd",
	"text/regret":        "dff0d30be136fdae1813a846a101963e12be1677d9efcbedd0a0fa6f83d708d3",
	"text/reqtypes":      "71092c3889b851a7ef1a168f7934aec0b162f646c60a9a655c714ffd9c3869ff",
	"text/sizeclasses":   "4ce8ceb9b7b8eda4ffd27fe355c9f224360fcba503d8ad087147ca8f5cce84cd",
	"text/table1":        "b789001856c5e82bc5179a035a12dd63550c8280ef9c62ee09b1073a9e055ea6",
	"text/table2":        "9ee902b6e8a1c5785e15d3d3d5c5acf9a02cfb70dbbae3ccefdff04424b2aa8c",
	"text/table3":        "5db7252a878c8bed38e2aacbd50ce84dab529b79cad86ba6a09032debdca4b0f",
	"text/workload":      "94469d357319521c2bc75172eaf2054bec407bba12deba32aa5f6e37db8a2dbf",
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	p := tinyParams()
	p.Utilizations = []float64{0.3}
	p.MeasureJobs = 400
	p.WarmupJobs = 50
	p.BacklogWarmup = 1000
	p.BacklogMeasure = 5000
	env := NewEnv(p)
	env.DataDir = t.TempDir()
	out, err := All(env)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	names := Names()
	for _, name := range names {
		header := "================ " + name + " ================\n"
		i := strings.Index(out, header)
		if i < 0 {
			t.Errorf("All output missing section %q", name)
			continue
		}
		section := out[i+len(header):]
		if j := strings.Index(section, "\n================ "); j >= 0 {
			section = section[:j]
		}
		got["text/"+name] = sha256Hex([]byte(section))
	}
	files, err := os.ReadDir(env.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(env.DataDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got["csv/"+f.Name()] = sha256Hex(data)
	}
	keys := make([]string, 0, len(got)+len(allOutputDigests))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range allOutputDigests {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != allOutputDigests[k] {
			t.Errorf("%s: digest %q, want %q", k, got[k], allOutputDigests[k])
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSweepSharedTraceMatchesPerPolicy is the sweep-level common-random-
// numbers guardrail: running the standard policy curves against the shared
// per-point workload traces must produce exactly the curves of per-policy
// live sampling (each point's configuration with its TraceProvider
// cleared). Both feed every run the same draws; only where the draws
// happen differs.
func TestSweepSharedTraceMatchesPerPolicy(t *testing.T) {
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.5}
	p.Replications = 2

	curves := func(env *Env, live bool) []plot.Series {
		spec := env.MultiSpec(16, env.Derived.Sizes128)
		var out []plot.Series
		for _, cs := range []CurveSpec{
			{Label: "GS", Policy: "GS", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LS", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LP", Policy: "LP", ClusterSizes: MulticlusterSizes, Spec: spec},
			{Label: "LS-unbal", Policy: "LS", ClusterSizes: MulticlusterSizes, Spec: spec,
				QueueWeights: core.Unbalanced(len(MulticlusterSizes))},
		} {
			if !live {
				s, err := env.Curve(cs)
				if err != nil {
					t.Fatalf("%s: %v", cs.Label, err)
				}
				out = append(out, s)
				continue
			}
			var results []core.Result
			for _, u := range env.Utilizations {
				cfg := env.pointConfig(cs, u)
				if cfg.TraceProvider == nil {
					t.Fatalf("%s: sweep point has no shared trace; the comparison is vacuous", cs.Label)
				}
				cfg.TraceProvider = nil
				res, err := env.runPoint(cfg)
				if err != nil {
					t.Fatalf("%s live: %v", cs.Label, err)
				}
				results = append(results, res)
				if res.Saturated {
					break
				}
			}
			out = append(out, env.series(cs.Label, results))
		}
		return out
	}

	shared := curves(NewEnv(p), false)
	pergen := curves(NewEnv(p), true)

	for ci := range shared {
		a, b := shared[ci], pergen[ci]
		if a.Len() != b.Len() {
			t.Fatalf("%s: shared %d points, per-policy %d", a.Name, a.Len(), b.Len())
		}
		for i := range a.X {
			if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
				t.Fatalf("%s point %d differs: shared (%g,%g) vs per-policy (%g,%g)",
					a.Name, i, a.X[i], a.Y[i], b.X[i], b.Y[i])
			}
		}
	}
}

func TestRegistryMetadata(t *testing.T) {
	if Known("nope") {
		t.Error("Known accepted an unregistered name")
	}
	if UsesSimulations("nope") || UsesConservative("nope") {
		t.Error("unknown experiment claims flag applicability")
	}
	for _, n := range []string{"fig3", "fig5", "regret", "backfill"} {
		if !Known(n) || !UsesSimulations(n) {
			t.Errorf("%s should be a known simulation experiment", n)
		}
	}
	for _, n := range []string{"table1", "fig1", "ratio", "workload"} {
		if UsesSimulations(n) {
			t.Errorf("%s runs no simulations but claims -decisions applies", n)
		}
	}
	for _, n := range []string{"backfill", "faults", "checkpoint"} {
		if !UsesConservative(n) {
			t.Errorf("%s runs GS-CONS but claims -lookahead does not apply", n)
		}
	}
	if UsesConservative("fig3") || UsesConservative("regret") {
		t.Error("non-backfilling experiments claim -lookahead applies")
	}
}

func TestRankSummaryNeverStable(t *testing.T) {
	stable := plot.Series{Name: "ok", X: []float64{0.2, 0.4}, Y: []float64{10, 20}}

	// A curve whose very first grid point was a saturation terminator has
	// no stable points at all; it must rank as "never stable", not 0.00.
	allSat := plot.Series{Name: "sat", X: []float64{0.2}, Y: []float64{50000}, Saturated: true}
	out := rankSummary([]plot.Series{stable, allSat})
	if !strings.Contains(out, "ok 0.40") {
		t.Errorf("stable curve misranked: %q", out)
	}
	if !strings.Contains(out, "sat never stable") {
		t.Errorf("all-saturated curve not reported as never stable: %q", out)
	}
	if strings.Contains(out, "sat 0.00") {
		t.Errorf("all-saturated curve got a fabricated rank: %q", out)
	}

	// Every measured response above the plot cap: also never stable.
	overCap := plot.Series{Name: "cap", X: []float64{0.2, 0.4}, Y: []float64{20000, 30000}}
	if out := rankSummary([]plot.Series{overCap}); !strings.Contains(out, "cap never stable") {
		t.Errorf("over-cap curve not reported as never stable: %q", out)
	}

	// Degenerate: a marked-saturated series with zero points must not
	// panic on the terminator slice.
	empty := plot.Series{Name: "empty", Saturated: true}
	if out := rankSummary([]plot.Series{empty}); !strings.Contains(out, "empty never stable") {
		t.Errorf("empty saturated curve: %q", out)
	}
}

func TestRegretExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	dir := t.TempDir()
	p := tinyParams()
	p.Utilizations = []float64{0.3, 0.6}
	p.DataDir = dir
	env := NewEnv(p)
	out, err := Run("regret", env)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"Regret —", "mean regret per job", "GS 128", "LS 64"} {
		if !strings.Contains(out, w) {
			t.Errorf("regret output missing %q", w)
		}
	}
	if env.Decisions != nil {
		t.Error("regret experiment leaked Decisions into the shared Env")
	}
	data, err := os.ReadFile(filepath.Join(dir, "regret.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "GS 128") {
		t.Errorf("regret.csv missing series header: %s", data)
	}
}
