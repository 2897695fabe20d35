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
