package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileTop is a parsed `go tool pprof -top` listing: the flat and
// cumulative CPU seconds of every function, and the profile total.
type profileTop struct {
	total     float64
	flat, cum map[string]float64
}

// pprofTop renders the CPU profile at path as a complete -top listing in
// milliseconds (no node dropped, so the flat column sums to the total).
func pprofTop(path string) (string, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return stdout.String(), nil
}

// parseTop parses a -top listing: the "Showing nodes accounting for X,
// P% of T total" line gives the total, and each row after the column
// header is "flat flat% sum% cum cum% function [(inline)]".
func parseTop(text string) (profileTop, error) {
	top := profileTop{flat: map[string]float64{}, cum: map[string]float64{}}
	rows := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			i := strings.Index(line, " of ")
			j := strings.LastIndex(line, " total")
			if i < 0 || j < i {
				return top, fmt.Errorf("pprof: malformed total line %q", line)
			}
			t, err := parseAmount(line[i+len(" of ") : j])
			if err != nil {
				return top, err
			}
			top.total = t
		case len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%":
			rows = true
		case rows && len(fields) >= 6:
			flat, err := parseAmount(fields[0])
			if err != nil {
				return top, err
			}
			cum, err := parseAmount(fields[3])
			if err != nil {
				return top, err
			}
			name := strings.TrimSuffix(strings.Join(fields[5:], " "), " (inline)")
			top.flat[name] += flat
			top.cum[name] = max(top.cum[name], cum)
		}
	}
	if !rows || top.total <= 0 {
		return top, fmt.Errorf("pprof: no samples in the -top listing")
	}
	return top, nil
}

// parseAmount parses a CPU amount of the -unit=ms listing ("0" or
// "12.5ms") into seconds.
func parseAmount(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	num, ok := strings.CutSuffix(s, "ms")
	v, err := strconv.ParseFloat(num, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("pprof: bad amount %q", s)
	}
	return v / 1e3, nil
}

// packageOf returns the import path of a profiled function name such as
// "coalloc/internal/policies.(*Conservative).pass" or
// "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// selfShare is the fraction of the profile's CPU spent in the functions
// of package pkg themselves (flat time).
func (t profileTop) selfShare(pkg string) float64 {
	var s float64
	for fn, v := range t.flat {
		if packageOf(fn) == pkg {
			s += v
		}
	}
	return s / t.total
}

// cumShare is the fraction of the profile's CPU spent in fn and
// everything it calls.
func (t profileTop) cumShare(fn string) float64 { return t.cum[fn] / t.total }
