// Command benchab runs an interleaved A/B comparison of the repository
// benchmark (perfbench) between a base revision and the working tree:
//
//	go run ./scripts/benchab -base HEAD~1 -workload fig3 -pairs 10
//	make bench-ab BASE=HEAD~1 WORKLOAD=fig3 PAIRS=10
//
// It extracts the base revision with `git archive` into a temporary
// directory (nothing is registered with git, so an interrupted run leaves
// no stale worktree), builds perfbench there and in the working tree, and
// then runs the two binaries in pairs. Pairs alternate between seeds 1
// and 7 every two pairs and swap which arm goes first every pair, so every
// four pairs cover each seed in both orders. Each run is one
// `perfbench -trace 0` invocation with the run_seconds budget
// BENCHMARK.json declares, executed from the root of its own tree.
//
// For every end-to-end metric BENCHMARK.json declares, it prints the
// minimum, median and interquartile range of each arm and the number of
// pairs the working tree won (better by the metric's declared direction).
// It exits 1 when any run reports "correct": false or a failed operation.
// Run it from the repository root on an otherwise idle machine; the
// comparison is only as quiet as the machine is.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// seeds are the workload seeds the pairs alternate between.
var seeds = []string{"1", "7"}

// benchmark is the part of BENCHMARK.json an A/B needs.
type benchmark struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// report is the JSON line perfbench prints last.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// arm is one side of the comparison: a source tree and its built binary.
type arm struct {
	name, dir, bin string
	runs           []report
}

func main() {
	base := flag.String("base", "", "git revision of the base arm (required)")
	workload := flag.String("workload", "fig3", "perfbench workload: fig3, backfill or drivers")
	pairs := flag.Int("pairs", 10, "number of interleaved run pairs")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "benchab: -base is required; -pairs must be >= 1")
		os.Exit(2)
	}
	code, err := run(*base, *workload, *pairs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(baseRev, workload string, pairs int) (int, error) {
	bench, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		return 1, err
	}
	specs, seconds := bench.EndToEnd, bench.RunSeconds
	root, err := os.Getwd()
	if err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if err := extract(baseRev, baseDir); err != nil {
		return 1, err
	}
	arms := []*arm{
		{name: "base", dir: baseDir, bin: filepath.Join(tmp, "perfbench-base")},
		{name: "change", dir: root, bin: filepath.Join(tmp, "perfbench-change")},
	}
	for _, a := range arms {
		if err := build(a); err != nil {
			return 1, err
		}
	}
	for i := 0; i < pairs; i++ {
		seed := seeds[(i/2)%len(seeds)]
		order := arms
		if i%2 == 1 {
			order = []*arm{arms[1], arms[0]}
		}
		for _, a := range order {
			rep, err := runOnce(a, workload, seed, seconds)
			if err != nil {
				return 1, fmt.Errorf("pair %d, %s arm: %w", i+1, a.name, err)
			}
			a.runs = append(a.runs, rep)
			fmt.Fprintf(os.Stderr, "pair %d/%d seed %s %-6s correct=%v %s\n",
				i+1, pairs, seed, a.name, rep.Correct, brief(rep, specs))
		}
	}
	fmt.Printf("benchab: %s, %d interleaved pairs, -seconds %d, base %s vs working tree\n\n",
		workload, pairs, seconds, baseRev)
	fmt.Print(summarize(specs, arms[0].runs, arms[1].runs))
	code := 0
	for _, a := range arms {
		for i, r := range a.runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("\n%s arm, pair %d: correct=%v, %d of %d operations failed\n",
					a.name, i+1, r.Correct, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code, nil
}

// readBenchmark reads the run length and the end-to-end metrics
// BENCHMARK.json declares.
func readBenchmark(path string) (benchmark, error) {
	var decl benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return decl, fmt.Errorf("%v (run from the repository root)", err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return decl, fmt.Errorf("%s: %v", path, err)
	}
	if len(decl.EndToEnd) == 0 || decl.RunSeconds < 1 {
		return decl, fmt.Errorf("%s declares no end_to_end metrics or no run_seconds", path)
	}
	return decl, nil
}

// extract writes the tree of rev into dir with git archive.
func extract(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		_ = untar.Wait() // the archive error is the one to report
		return fmt.Errorf("git archive %s: %v: %s", rev, err, stderr.String())
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extracting %s: %v: %s", rev, err, stderr.String())
	}
	return nil
}

// build compiles an arm's perfbench with the toolchain settings of
// perfbench/run.sh.
func build(a *arm) error {
	cmd := exec.Command("go", "build", "-o", a.bin, ".")
	cmd.Dir = filepath.Join(a.dir, "perfbench")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("building the %s arm: %v\n%s", a.name, err, out)
	}
	return nil
}

// runOnce runs an arm's benchmark once from the root of its tree and
// parses the JSON report on its last output line. A failed run's error
// carries the tail of its stderr.
func runOnce(a *arm, workload, seed string, seconds int) (report, error) {
	cmd := exec.Command(a.bin, "-workload", workload, "-seed", seed,
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = a.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("%v\n%s", err, lastLines(stderr.String(), 10))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("parsing the report: %v", err)
	}
	return rep, nil
}

// lastLines returns the last n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// brief renders a run's end-to-end metrics on one line.
func brief(rep report, specs []metricSpec) string {
	var parts []string
	for _, s := range specs {
		parts = append(parts, fmt.Sprintf("%s=%.4g", s.Name, rep.Metrics[s.Name].Value))
	}
	return strings.Join(parts, " ")
}

// summarize renders the per-metric table: min, median and IQR of each arm
// and the pairs the change arm won. Runs i of base and change form pair i.
func summarize(specs []metricSpec, base, change []report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-5s %10s %10s %-26s %10s %10s %-26s %s\n",
		"metric", "unit", "base min", "median", " IQR", "change min", "median", " IQR", "change wins")
	for _, s := range specs {
		bv, cv := values(base, s.Name), values(change, s.Name)
		bq, cq := quartiles(bv), quartiles(cv)
		won, tied := wins(bv, cv, s.Better)
		fmt.Fprintf(&b, "%-12s %-5s %10.4g %10.4g %-26s %10.4g %10.4g %-26s %d/%d",
			s.Name, s.Unit, bq[0], bq[2], iqr(bq), cq[0], cq[2], iqr(cq), won, len(bv))
		if tied > 0 {
			fmt.Fprintf(&b, " (%d tied)", tied)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func iqr(q [5]float64) string {
	return fmt.Sprintf("%.3g-%.3g (%.2g)", q[1], q[3], q[3]-q[1])
}

func values(runs []report, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// quartiles returns the minimum, first quartile, median, third quartile
// and maximum of vs, interpolating linearly between order statistics.
func quartiles(vs []float64) [5]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	var q [5]float64
	for i, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if len(s) == 0 {
			q[i] = math.NaN()
			continue
		}
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		q[i] = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return q
}

// wins counts the pairs in which the change arm is strictly better by the
// metric's direction ("lower" or "higher"), and the tied pairs.
func wins(base, change []float64, better string) (won, tied int) {
	for i := range base {
		switch {
		case change[i] == base[i]:
			tied++
		case (better == "higher") == (change[i] > base[i]):
			won++
		}
	}
	return won, tied
}
