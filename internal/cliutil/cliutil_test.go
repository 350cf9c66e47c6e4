package cliutil

import (
	"math"
	"reflect"
	"testing"
)

type exitPanic int

// captureExit runs fn with the process exit intercepted and reports the
// status it attempted to exit with (-1 when it returned normally).
func captureExit(t *testing.T, fn func()) int {
	t.Helper()
	old := exit
	exit = func(c int) { panic(exitPanic(c)) }
	defer func() { exit = old }()
	code := -1
	func() {
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(exitPanic)
				if !ok {
					panic(r)
				}
				code = int(c)
			}
		}()
		fn()
	}()
	return code
}

func TestCheckLookahead(t *testing.T) {
	cases := []struct {
		v       int
		applies bool
		want    int
	}{
		{0, false, -1}, // default: always fine, even when inapplicable
		{0, true, -1},
		{1, true, -1},
		{32, true, -1},
		{-3, true, 2},  // explicit values must be >= 1
		{-3, false, 2}, // the bound check fires before applicability
		{5, false, 2},  // dangling bound: nothing backfills conservatively
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckLookahead("test", c.v, c.applies, "no conservative policy in this run")
		})
		if got != c.want {
			t.Errorf("CheckLookahead(%d, applies=%v) exit %d, want %d", c.v, c.applies, got, c.want)
		}
	}
}

func TestCheckDecisions(t *testing.T) {
	cases := []struct {
		on, applies bool
		want        int
	}{
		{false, false, -1},
		{false, true, -1},
		{true, true, -1},
		{true, false, 2},
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckDecisions("test", c.on, c.applies, "no simulations in this run")
		})
		if got != c.want {
			t.Errorf("CheckDecisions(on=%v, applies=%v) exit %d, want %d", c.on, c.applies, got, c.want)
		}
	}
}

func TestCheckRetryWindow(t *testing.T) {
	cases := []struct {
		base, cap float64
		want      int
	}{
		{0, 0, -1},    // both defaulted: 10 s under 600 s
		{10, 600, -1}, // explicit defaults
		{50, 50, -1},  // degenerate but non-empty window
		{700, 1000, -1},
		{0, 5, 2},    // cap below the defaulted 10 s base
		{700, 0, 2},  // explicit base above the defaulted 600 s cap
		{600, 50, 2}, // both explicit, inverted
		{-1, 600, 2},
		{10, math.NaN(), 2},
		{math.Inf(1), 0, 2},
	}
	for _, c := range cases {
		got := captureExit(t, func() {
			CheckRetryWindow("test", c.base, c.cap)
		})
		if got != c.want {
			t.Errorf("CheckRetryWindow(%g, %g) exit %d, want %d", c.base, c.cap, got, c.want)
		}
	}
}

func TestClusters(t *testing.T) {
	cases := []struct {
		policy, value string
		want          []int
	}{
		{"GS", "", []int{32, 32, 32, 32}},
		{"LS", "", []int{32, 32, 32, 32}},
		{"SC", "", []int{128}},
		{"SC-EASY", "", []int{128}},
		{"SC-CONS", "", []int{128}},
		{"SC-CONS", "64", []int{64}},
		{"GS", "16, 48", []int{16, 48}},
	}
	for _, c := range cases {
		if got := Clusters("test", c.policy, c.value); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Clusters(%s, %q) = %v, want %v", c.policy, c.value, got, c.want)
		}
	}
	for _, bad := range []string{"32,x", "0", "32,,32", "-4"} {
		if got := captureExit(t, func() { Clusters("test", "GS", bad) }); got != 2 {
			t.Errorf("Clusters(%q) exit %d, want 2", bad, got)
		}
	}
}
