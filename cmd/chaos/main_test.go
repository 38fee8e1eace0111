package main

import (
	"bytes"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"positional args", []string{"-daemon", "x", "extra"}},
		{"missing daemon", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
			}
		})
	}
}

func TestRunMissingBinary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-daemon", filepath.Join(t.TempDir(), "nope")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
}

// freeAddr reserves an ephemeral port and releases it for the daemon —
// racy in principle, fine for a test.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestChaosKillRestart is the harness's own end-to-end drill at small
// scale: build the real daemon, run the full boot → attack → SIGKILL →
// restart → friendly-tail → quiet-crash sequence, and require a PASS.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping kill/restart drill in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "tinygroupsd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/tinygroupsd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build tinygroupsd: %v\n%s", err, out)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-daemon", bin,
		"-addr", freeAddr(t),
		"-n", "256",
		"-ops", "120",
		"-keys", "64",
		"-concurrency", "2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("chaos run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, line := range []string{"chaos: quiet crash verified", "chaos: PASS"} {
		if !bytes.Contains(stdout.Bytes(), []byte(line)) {
			t.Fatalf("missing %q line\nstdout:\n%s", line, stdout.String())
		}
	}
}
