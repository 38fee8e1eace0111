package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one tinygroupsd process the benchmark started. Every daemon is
// SIGKILLed and reaped before the benchmark exits.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	dir  string

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	logd chan struct{}
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon execs the daemon binary on dataDir and returns once it has
// logged its listen address. The caller polls readiness itself, so the
// time it measures starts at exec.
func startDaemon(bin, dataDir string, n int, seed int64) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-n", strconv.Itoa(n),
		"-seed", strconv.FormatInt(seed, 10), "-data-dir", dataDir)
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dataDir, logd: make(chan struct{})}
	addr := make(chan string, 1)
	go d.drain(stderr, addr)
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.logd:
		d.kill()
		return nil, fmt.Errorf("daemon exited before listening: %s", d.lastLog())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not listen within 60s: %s", d.lastLog())
	}
}

// drain reads the daemon's log until the pipe closes, handing the listen
// address to addr once.
func (d *daemon) drain(r io.Reader, addr chan<- string) {
	defer close(d.logd)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if m := listenRe.FindStringSubmatch(line); m != nil && !sent {
			addr <- m[1]
			sent = true
		}
	}
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// kill SIGKILLs the daemon and waits until it and its log reader are gone.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Kill() // already exited is fine
	_ = d.cmd.Wait()         // a killed process reports its signal
	<-d.logd
}

// waitReady polls /healthz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *conn) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := c.health(ctx); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy within 60s: %s", d.lastLog())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// cpuTicks returns the daemon's utime+stime in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return ut + st, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// Linux fixes it at 100 for every architecture the daemon builds on.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// newestFileSize returns the size of the last file in dir, by name, that
// matches the glob pattern; snapshot and op-log names sort by epoch.
func newestFileSize(dir, pattern string) (int64, error) {
	m, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(m) == 0 {
		return 0, fmt.Errorf("no %s in %s", pattern, dir)
	}
	sort.Strings(m)
	fi, err := os.Stat(m[len(m)-1])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
