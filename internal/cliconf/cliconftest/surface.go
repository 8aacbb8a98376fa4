// Package cliconftest holds the checks every binary that registers the
// shared fleet flags runs against its own entry point, so "the same flags,
// rejected the same way" is one table and not one per binary.
package cliconftest

import (
	"regexp"
	"strings"
	"testing"
)

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultTail = regexp.MustCompile(`\(default (.*)\)$`)
)

// CheckSurface parses a flag set's -h output and fails the test unless it
// declares exactly the flags in want, each with the default -h prints for it
// (quoted for strings, "" when the flag package prints none).
func CheckSurface(t *testing.T, help string, want map[string]string) {
	t.Helper()
	got := make(map[string]string)
	name := ""
	for _, line := range strings.Split(help, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			name = m[1]
			got[name] = ""
		} else if m := defaultTail.FindStringSubmatch(line); m != nil && name != "" {
			got[name] = m[1]
		}
	}
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s is gone", name)
		} else if g != def {
			t.Errorf("flag -%s default = %s, want %s", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("flag -%s is new", name)
		}
	}
}

// CheckRejections runs the shared fleet flags' invalid spellings through one
// binary's entry point (exit code and stderr of the given arguments) and
// fails the test unless each is a usage error carrying cliconf's message.
func CheckRejections(t *testing.T, run func(args ...string) (code int, stderr string)) {
	t.Helper()
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-deadline", "-1s"}, "invalid fleet flags: deadline -1s, max-inflight 0"},
		{[]string{"-max-inflight", "-1"}, "invalid fleet flags: deadline 0s, max-inflight -1"},
		{[]string{"-autoscale", "-autoscale-min", "0"}, "invalid autoscale flags: min 0, max 8, interval"},
		{[]string{"-devices", "rpi3:2x"}, `device spec "rpi3:2x": workers "2x" is not a number`},
		{[]string{"-policy", "darts"}, `unknown policy "darts"`},
		{[]string{"-precision", "fp4"}, `unknown precision "fp4"`},
	} {
		code, stderr := run(c.args...)
		if code != 2 || !strings.Contains(stderr, c.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with %q", c.args, code, stderr, c.msg)
		}
	}
}
