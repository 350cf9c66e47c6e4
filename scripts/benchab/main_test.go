package main

import (
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q := quartiles([]float64{4, 1, 3, 2, 5})
	if q != [5]float64{1, 2, 3, 4, 5} {
		t.Fatalf("quartiles = %v", q)
	}
	// Six values: the quartiles fall between order statistics.
	q = quartiles([]float64{10, 20, 30, 40, 50, 60})
	if q != [5]float64{10, 22.5, 35, 47.5, 60} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestWins(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	change := []float64{9, 11, 10, 8}
	if won, tied := wins(base, change, "lower"); won != 2 || tied != 1 {
		t.Fatalf("lower: won %d tied %d, want 2 and 1", won, tied)
	}
	if won, tied := wins(base, change, "higher"); won != 1 || tied != 1 {
		t.Fatalf("higher: won %d tied %d, want 1 and 1", won, tied)
	}
}

func TestSummarize(t *testing.T) {
	mk := func(v float64) report {
		r := report{Correct: true}
		r.Metrics = map[string]struct {
			Value float64 `json:"value"`
		}{"cpu_s": {Value: v}}
		return r
	}
	specs := []metricSpec{{Name: "cpu_s", Unit: "s", Better: "lower"}}
	out := summarize(specs,
		[]report{mk(20), mk(22), mk(21)},
		[]report{mk(15), mk(23), mk(16)})
	if !strings.Contains(out, "cpu_s") || !strings.HasSuffix(strings.TrimSpace(out), "2/3") {
		t.Fatalf("summary:\n%s", out)
	}
}

func TestLastLines(t *testing.T) {
	if got := lastLines("a\nb\nc\n", 2); got != "b\nc" {
		t.Fatalf("lastLines = %q", got)
	}
	if got := lastLines("only", 5); got != "only" {
		t.Fatalf("lastLines = %q", got)
	}
}

func TestReadBenchmark(t *testing.T) {
	b, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || len(b.EndToEnd) == 0 {
		t.Fatalf("readBenchmark = %+v", b)
	}
}
