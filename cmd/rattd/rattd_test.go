package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"saferatt/internal/rattd"
	"saferatt/internal/verifier"
)

// TestMain runs main itself when a test re-executes the test binary as
// rattd.
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
		{"-restore", "-restore needs -checkpoint <path>"},
	} {
		t.Run(c.args, func(t *testing.T) { usageExit(t, c.msg, strings.Fields(c.args)...) })
	}
}

// usageExit runs rattd with args and fails t unless it exits with status
// 2 and one stderr line starting "rattd: " and msg.
func usageExit(t *testing.T, msg string, args ...string) {
	t.Helper()
	// A value that slips through starts a daemon: the deadline ends it,
	// and the test fails on its status.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append(args, "-addr", "127.0.0.1:0")...)
	cmd.Env = append(os.Environ(), "RATTD_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, &stderr)
	}
	// One line and nothing else: no panic, no stack trace.
	if got := stderr.String(); !strings.HasPrefix(got, "rattd: "+msg) || strings.Count(got, "\n") != 1 {
		t.Fatalf("stderr %q, want one line starting %q", got, "rattd: "+msg)
	}
}

// TestColdStartOnUsedCheckpointRefused: a daemon started without
// -restore on a -checkpoint path an earlier daemon wrote exits through
// usage and leaves the chain as it was; its first checkpoint would
// otherwise have replaced the chain, and the counters it held would be
// accepted again.
func TestColdStartOnUsedCheckpointRefused(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	image := rattd.GoldenImage(42, 64<<10, 1<<10)
	res, _ := runDaemon(t, func(addr string) *rattd.FleetResult {
		t.Helper()
		res, err := rattd.RunFleet(rattd.FleetConfig{
			Addr: addr, Provers: 2, History: 2, Image: image, BlockSize: 1 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}, "-checkpoint", ck)
	if res.CollectOK != 2 {
		t.Fatalf("first run: %+v", res)
	}
	chain, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	usageExit(t, "-checkpoint "+ck+" holds a checkpoint chain; pass -restore to resume it, or move it away to start over", "-checkpoint", ck)
	if after, err := os.ReadFile(ck); err != nil || !bytes.Equal(after, chain) {
		t.Fatalf("the refused start changed the chain at %s (err %v)", ck, err)
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

// TestServeCheckpointRestore runs the daemon process the way the
// benchmark harness does: on port 0, found from its serving line, ended
// by SIGTERM, read through its stats lines, then restarted with
// -restore on the same checkpoint path. The restored daemon must still
// verify every SMART round and refuse every replayed collection.
func TestServeCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck")
	// The daemon's default image: -seed 42 -mem 65536 -block 1024.
	image := rattd.GoldenImage(42, 64<<10, 1<<10)
	fleet := func(addr string) *rattd.FleetResult {
		t.Helper()
		res, err := rattd.RunFleet(rattd.FleetConfig{
			Addr: addr, Provers: 20, History: 2, Image: image, BlockSize: 1 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res, log := runDaemon(t, fleet, "-checkpoint", ck)
	if res.SMARTOK != 20 || res.CollectOK != 20 {
		t.Fatalf("first run: %+v", res)
	}
	if !strings.Contains(log, "rattd: challenges=20 accepted=60 rejected=0 replays=0 enrolled=20 balance=1.000 ") {
		t.Fatalf("first run's stats line is not the one expected:\n%s", log)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint at -checkpoint's path: %v", err)
	}
	if _, err := os.Stat(ck + ".0"); !os.IsNotExist(err) {
		t.Fatalf("a per-shard chain %s.0 exists (err %v)", ck, err)
	}

	res, log = runDaemon(t, fleet, "-checkpoint", ck, "-restore")
	if res.SMARTOK != 20 || res.CollectOK != 0 || res.CollectFail != 20 {
		t.Fatalf("restored run: %+v, want 20 SMART rounds ok and 20 collections refused", res)
	}
	for _, want := range []string{
		"rattd: challenges=20 accepted=20 rejected=40 replays=40 enrolled=20 balance=1.000 ",
		`rattd: refused "replayed measurement counter"=40` + "\n",
	} {
		if !strings.Contains(log, want) {
			t.Fatalf("restored run's log lacks %q:\n%s", want, log)
		}
	}
}

// runDaemon starts rattd on 127.0.0.1:0 with -stats 0 and args, learns
// its port from the serving line by bench/statsline.go's parseServing
// rule, runs fleet against it, sends SIGTERM and returns the fleet's
// result and everything the daemon logged.
func runDaemon(t *testing.T, fleet func(addr string) *rattd.FleetResult, args ...string) (*rattd.FleetResult, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-stats", "0"}, args...)...)
	cmd.Env = append(os.Environ(), "RATTD_AS_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The reader stops at the daemon's EOF, or when this function gives
	// up on it first.
	lines, done := make(chan string), make(chan struct{})
	defer close(done)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			select {
			case lines <- sc.Text():
			case <-done:
				return
			}
		}
	}()
	var log strings.Builder
	addr := ""
	for timeout := time.After(20 * time.Second); addr == ""; {
		select {
		case line, ok := <-lines:
			if !ok {
				cmd.Wait()
				t.Fatalf("daemon exited with no serving line:\n%s", log.String())
			}
			log.WriteString(line + "\n")
			addr = servingAddr(line)
		case <-timeout:
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no serving line in 20s:\n%s", log.String())
		}
	}
	res := fleet(addr)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for line := range lines {
		log.WriteString(line + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon: %v\n%s", err, log.String())
	}
	return res, log.String()
}

// servingAddr is bench/statsline.go's parseServing: the address between
// " serving on " and " as " on a line that says "rattd: shard " first.
func servingAddr(line string) string {
	i := strings.Index(line, " serving on ")
	if i < 0 || !strings.Contains(line[:i], "rattd: shard ") {
		return ""
	}
	rest := line[i+len(" serving on "):]
	j := strings.Index(rest, " as ")
	if j <= 0 {
		return ""
	}
	return rest[:j]
}
