package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this build's output")

// TestMain runs main itself when TestFlagErrors re-executes the test
// binary as rattsim.
func TestMain(m *testing.M) {
	if os.Getenv("RATTSIM_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden replays every simulated rattsim mode and compares its
// output byte for byte with testdata/<name>.txt. go test -run TestGolden
// -update rewrites the files, so a change that moves a number shows the
// move in its diff. Left out: -mode rattping, which needs a live rattd.
// It skips under -race (the same answer, many times slower).
func TestGolden(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && strings.Contains(fmt.Sprint(bi.Settings), "{-race true}") {
		t.Skip("replays whole simulations: the same answer, many times slower under -race")
	}
	for _, c := range []struct{ name, args string }{
		{"ondemand", ""},
		{"smarm-roving", "-mech SMARM -rounds 13 -malware roving"},
		{"inclock-transient-trace", "-mech Inc-Lock -malware transient -trace"},
		{"erasmus", "-mode erasmus"},
		{"seed-loss", "-mode seed -loss 0.1"},
		{"swarm", "-mode swarm -infect 5"},
		{"swarm-devices", "-mode swarm -devices 1000 -infect 42"},
		{"tytan", "-mode tytan"},
		{"tytan-no-isolation", "-mode tytan -no-isolation"},
		{"lifecycle", "-mode lifecycle"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("rattsim %s: output differs from %s\n got:\n%s\nwant:\n%s", c.args, path, out.String(), want)
			}
		})
	}
}

// TestFlagErrors: a flag value a scenario cannot run with ends rattsim
// with status 2 and one "rattsim: " line naming the value, not with a
// Go panic or a wrong answer.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct{ args, msg string }{
		{"-mech Bogus", `unknown -mech "Bogus"`},
		{"-hash MD5", `unknown -hash "MD5"`},
		{"-mem 1000", "-mem 1000 must be a multiple of -block 1024"},
		{"-mode seed -loss 1.5", "-loss 1.5 is outside [0, 1]"},
		{"-mode erasmus -tm 0", "-tm 0 and -horizon 60 must be positive"},
		{"-mode swarm -nodes 0", "-nodes 0 must be at least 1"},
		{"-mode swarm -infect 99", "-infect 99 names no node of 15"},
		{"-malware persistent -malware-block 999", "-malware-block 999 names no block of 64"},
		{"-mode rattping -shards 2", "-shards 2: rattping drives one daemon; run one rattping per daemon"},
	} {
		t.Run(c.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], strings.Fields(c.args)...)
			cmd.Env = append(os.Environ(), "RATTSIM_AS_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, &stderr)
			}
			// One line and nothing else: no panic, no stack trace.
			if got := stderr.String(); !strings.HasPrefix(got, "rattsim: "+c.msg) || strings.Count(got, "\n") != 1 {
				t.Fatalf("stderr %q, want one line starting %q", got, "rattsim: "+c.msg)
			}
		})
	}
}
