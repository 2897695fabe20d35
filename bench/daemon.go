package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups holds what must not outlive the harness: child daemons and
// temp dirs. runCleanups is deferred in main, called from the signal
// handler and from the watchdog, so it runs on every exit path the
// process can observe; children are additionally started with
// Pdeathsig so the kernel reaps them if the harness dies unobserved.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func atExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDir is the checkout-local directory for everything the harness
// builds or writes while running (the driver points CARGO_TARGET_DIR at
// the same place for Rust repos).
func buildDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "go.mod")); err != nil {
		return "", fmt.Errorf("run from the bench module directory (go run -C bench saferatt/bench): %v", err)
	}
	dir := filepath.Join(filepath.Dir(wd), ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// tempDir makes a scratch directory inside the checkout, removed at
// exit.
func tempDir(prefix string) (string, error) {
	base, err := buildDir()
	if err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	atExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// buildDaemon compiles the real cmd/rattd, unmodified, into the build
// directory and returns its path and how long the build took (the
// first build in a checkout compiles; later ones only check).
func buildDaemon() (string, time.Duration, error) {
	dir, err := buildDir()
	if err != nil {
		return "", 0, err
	}
	bin := filepath.Join(dir, "rattd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "saferatt/cmd/rattd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build saferatt/cmd/rattd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one running child rattd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time // exec instant
	exited  chan struct{}
	waitErr error

	mu    sync.Mutex
	lines []string
}

// startDaemon execs bin with args on a loopback port the kernel picks
// and returns once the daemon has printed its "serving on" line.
func startDaemon(bin string, gomaxprocs int, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-stats", "0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %v", bin, err)
	}
	atExit(d.kill)

	serving := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.lines = append(d.lines, line)
			d.mu.Unlock()
			if addr, ok := parseServing(line); ok {
				select {
				case serving <- addr:
				default:
				}
			}
		}
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.addr = <-serving:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("rattd exited before serving: %v\n%s", d.waitErr, d.log())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("rattd did not print its serving line within 60s\n%s", d.log())
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.lines, "\n")
}

// kill is the unconditional teardown (exit paths, timeouts).
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
	}
}

// stop asks the daemon to drain (SIGTERM, as an operator would), waits
// for it, and parses the stats it printed on the way out.
func (d *daemon) stop() (*daemonStats, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("signal rattd: %v", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("rattd did not exit within 60s of SIGTERM")
	}
	if d.waitErr != nil {
		return nil, fmt.Errorf("rattd exited uncleanly: %v\n%s", d.waitErr, d.log())
	}
	st := &daemonStats{}
	found := false
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, line := range d.lines {
		matched, err := parseStatsLine(line, st)
		if err != nil {
			return nil, err
		}
		if matched && strings.Contains(line, statsMarker) {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("rattd printed no stats line on exit:\n%s", strings.Join(d.lines, "\n"))
	}
	return st, nil
}

// cpu returns the child's utime+stime so far, from /proc (clock ticks
// of 10 ms; the windows it brackets are seconds long).
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/pid/stat: %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/pid/stat times: %q %q", f[11], f[12])
	}
	const userHz = 100
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// procStatusBytes reads one kB-valued field (VmRSS, VmHWM) of
// /proc/pid/status.
func procStatusBytes(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) >= 1 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb << 10, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssSampler reads a process's resident set every 100 ms while a window
// runs. The window's memory figure is the mean sample. A Go heap
// saw-tooths between collections, and under wire_smart (every exchange
// leaves a cached tag behind) climbs in a few steps through the window:
// the high-water mark is set by the one worst cycle and the median by
// which side of the middle of the window a step falls (138 to 159 MiB
// over ten identical runs whose means read 133 to 135).
type rssSampler struct {
	pid     int
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := procStatusBytes(s.pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, float64(b)/(1<<20))
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and files the window's memory figures: the
// mean resident set (end to end) and the high-water mark (per layer).
func (s *rssSampler) finish(res *runResult) error {
	close(s.stop)
	<-s.done
	peak, err := procStatusBytes(s.pid, "VmHWM")
	if err != nil {
		return err
	}
	if len(s.samples) == 0 {
		return fmt.Errorf("no resident-set samples of pid %d", s.pid)
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	res.put("rss_mib", sum/float64(len(s.samples)), len(s.samples))
	res.put("op.peak_rss_mib", float64(peak)/(1<<20), 1)
	return nil
}

// selfCPU is this process's utime+stime.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childGOMAXPROCS is the host rule for the daemon child: leave one CPU
// to the generator, use at most four.
func childGOMAXPROCS(nproc int) int {
	n := nproc - 1
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}
