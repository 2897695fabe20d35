package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"saferatt/internal/verifier"
)

// TestMain runs main itself when TestFlagErrors re-executes the test
// binary as rattd.
func TestMain(m *testing.M) {
	if os.Getenv("RATTD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagErrors: a flag value the daemon cannot serve with ends rattd
// with status 2 and one "rattd: " line naming the value, before it
// binds a socket, not with a Go panic.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct{ args, msg string }{
		{"-block 0", "-block 0 (need > 0)"},
		{"-block -5", "-block -5 (need > 0)"},
		{"-mem 1000", "-mem 1000 is not a positive multiple of -block 1024"},
		{"-image n=f -block 0", "-block 0 (need > 0)"},
		{"-shards 0", "-shards 0 (need >= 1)"},
		{"-restore", "-restore needs -checkpoint <path>"},
	} {
		t.Run(c.args, func(t *testing.T) {
			// A value that slips through starts a daemon: the deadline
			// ends it, and the test fails on its status.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append(strings.Fields(c.args), "-addr", "127.0.0.1:0")...)
			cmd.Env = append(os.Environ(), "RATTD_AS_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, &stderr)
			}
			// One line and nothing else: no panic, no stack trace.
			if got := stderr.String(); !strings.HasPrefix(got, "rattd: "+c.msg) || strings.Count(got, "\n") != 1 {
				t.Fatalf("stderr %q, want one line starting %q", got, "rattd: "+c.msg)
			}
		})
	}
}

// TestRefusals pins the daemon's per-verdict line: each rejecting
// verdict that moved, in Reason order and spelled by its String, and
// no marker the benchmark harness parses as the stats or ckpt line.
func TestRefusals(t *testing.T) {
	var some verifier.Tally
	some.Add(verifier.ReasonOK, 9)
	some.Add(verifier.ReasonTagMismatch, 3)
	some.Add(verifier.ReasonReplay, 2)
	some.Add(verifier.ReasonMalformedImage, 1)
	for _, c := range []struct {
		t    verifier.Tally
		want string
	}{
		{some, `rattd: refused "replayed measurement counter"=2 "tag mismatch (memory deviates from golden image)"=3 "malformed image id"=1`},
		{verifier.Tally{}, "rattd: refused none"},
	} {
		got := refusals(&c.t)
		if got != c.want {
			t.Errorf("refusals = %s, want %s", got, c.want)
		}
		if strings.Contains(got, "rattd: challenges=") || strings.Contains(got, "rattd: ckpt ") {
			t.Errorf("%s carries a stats-line marker", got)
		}
	}
}
