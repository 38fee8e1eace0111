// Command chaos is the kill/restart drill of the fault model: it boots a
// tinygroupsd daemon, drives the adversarial workload suite against it,
// SIGKILLs the process mid-epoch, restarts it, and asserts recovery — the
// restarted daemon answers /healthz and serves a friendly lookup tail at a
// success rate above the floor. A clean run exits 0; any phase failing, or
// the whole-run watchdog expiring, exits 1 (the watchdog SIGQUITs the
// daemon first so its goroutine dump lands in the log, then dumps the
// harness's own stacks).
//
// Both boots share a -data-dir, so the restart is a durability test, not a
// re-bootstrap: the harness records the epoch→fingerprint trail the first
// daemon serves and stores a set of acknowledged keys before the kill, then
// requires the restarted daemon to report recovered=true, resume at an
// epoch no older than the last observed boundary with a matching
// fingerprint, and return every acknowledged key from disk — a fresh
// bootstrap would answer those gets with 404.
//
// The last phase is a second, quiet crash of the restarted daemon, which
// runs with -epoch-interval 0: one advance, one put that lives only in the
// op log, SIGKILL, restart, and the recovered /healthz must match the
// pre-kill epoch and fingerprint exactly, with every acknowledged key
// (the op-log tail included) served back.
//
// Usage:
//
//	chaos -daemon PATH [-addr HOST:PORT] [-n N] [-mint-work W]
//	      [-ops N] [-concurrency C] [-keys K] [-seed S]
//	      [-advance-every N] [-success-floor F] [-timeout D]
//	      [-data-dir DIR]
//
// The op streams are the deterministic attack generators of
// tinygroups/loadgen, so two chaos runs with equal seeds apply identical
// pressure; only the kill timing is wall-clock.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/tinygroups/loadgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// daemonProc is one tinygroupsd process under torture.
type daemonProc struct {
	cmd *exec.Cmd
}

// startDaemon launches the daemon binary and returns once the process is
// spawned (readiness is the caller's WaitReady).
func startDaemon(bin string, stderr io.Writer, args ...string) (*daemonProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("chaos: start %s: %w", bin, err)
	}
	return &daemonProc{cmd: cmd}, nil
}

// kill SIGKILLs the daemon — the crash under test — and reaps it. The
// non-zero exit is the point, so the wait error is discarded. cmd.Wait
// (not Process.Wait) also joins the stdout/stderr copier goroutines, so
// the dead daemon's log pipes never race the restarted one's.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// stop asks for a graceful drain (SIGTERM) and requires a clean exit
// within timeout — a botched drain fails the harness.
func (d *daemonProc) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("chaos: signal daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("chaos: daemon drain exited dirty: %w", err)
		}
		return nil
	case <-time.After(timeout):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("chaos: daemon did not drain within %s", timeout)
	}
}

// health is the slice of the /healthz body the durability assertions read.
type health struct {
	Epoch         int64  `json:"epoch"`
	Fingerprint   string `json:"fingerprint"`
	Durable       bool   `json:"durable"`
	Recovered     bool   `json:"recovered"`
	SnapshotEpoch int    `json:"snapshot_epoch"`
}

// fetchHealth reads and decodes /healthz.
func fetchHealth(client *http.Client, base string) (health, error) {
	var h health
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// fingerprintTrail polls /healthz until stop is closed, recording every
// (epoch, fingerprint) pair the daemon serves. The 10ms cadence against the
// 100ms epoch ticker makes the trail effectively gapless, so the epoch the
// restarted daemon recovers to is almost always in the map.
func fingerprintTrail(client *http.Client, base string, stop <-chan struct{}) (map[int64]string, *sync.Mutex) {
	trail := make(map[int64]string)
	var mu sync.Mutex
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if h, err := fetchHealth(client, base); err == nil {
					mu.Lock()
					trail[h.Epoch] = h.Fingerprint
					mu.Unlock()
				}
			}
		}
	}()
	return trail, &mu
}

// putKey stores key=value via /v1/put, reporting whether the daemon
// acknowledged the write (only acknowledged keys are asserted after the
// restart — an unacknowledged put is allowed to be lost).
func putKey(client *http.Client, base, key string, value []byte) bool {
	body, _ := json.Marshal(map[string]any{"key": key, "value": value})
	resp, err := client.Post(base+"/v1/put", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// getKey fetches a stored value via /v1/get; ok reports a 200 with a body.
func getKey(client *http.Client, base, key string) (value []byte, ok bool) {
	resp, err := client.Get(base + "/v1/get?key=" + key)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	var out struct {
		Value []byte `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, false
	}
	return out.Value, true
}

// run executes the chaos sequence and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	daemon := fs.String("daemon", "", "path to the tinygroupsd binary to torture (required)")
	addr := fs.String("addr", "127.0.0.1:8479", "listen address handed to the daemon")
	n := fs.Int("n", 512, "population size of the served system")
	mintWork := fs.Float64("mint-work", 64, "PoW difficulty handed to the daemon (kept low so join-flood mints are cheap)")
	ops := fs.Int("ops", 400, "operations per workload phase")
	concurrency := fs.Int("concurrency", 4, "closed-loop client count")
	keys := fs.Int("keys", 128, "keyspace size")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds apply identical op streams")
	advanceEvery := fs.Int("advance-every", 50, "one epoch advance per this many ops in the attack phases")
	floor := fs.Float64("success-floor", 0.99, "minimum friendly-tail success rate after the restart")
	timeout := fs.Duration("timeout", 120*time.Second, "whole-run watchdog; expiry dumps goroutines and exits 1")
	dataDir := fs.String("data-dir", "", "data directory shared by both daemon boots (default: fresh temp dir, removed on success)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "chaos: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *daemon == "" {
		fmt.Fprintln(stderr, "chaos: -daemon is required")
		return 2
	}
	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-data-*")
		if err != nil {
			fmt.Fprintf(stderr, "chaos: mkdir data dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	// The watchdog is the harness's own liveness bound: if any phase wedges
	// (a hung drain, a daemon that never comes back), SIGQUIT the daemon so
	// its goroutine dump lands in the log, dump our own stacks, and fail.
	var current atomic.Pointer[exec.Cmd]
	wd := time.AfterFunc(*timeout, func() {
		fmt.Fprintf(stderr, "chaos: watchdog fired after %s — dumping goroutines\n", *timeout)
		if c := current.Load(); c != nil && c.Process != nil {
			_ = c.Process.Signal(syscall.SIGQUIT)
			time.Sleep(2 * time.Second) // let the daemon's dump flush
		}
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 1)
		os.Exit(1)
	})
	defer wd.Stop()

	baseArgs := []string{
		"-addr", *addr,
		"-n", fmt.Sprint(*n),
		"-seed", fmt.Sprint(*seed),
		"-mint-work", fmt.Sprint(*mintWork),
		"-data-dir", dir,
	}
	// The first boot churns epochs in the background; the restart holds the
	// epoch still (0 = advance only on request) so the recovery assertions
	// compare against a stable generation.
	bootArgs := append(append([]string{}, baseArgs...), "-epoch-interval", "100ms")
	restartArgs := append(append([]string{}, baseArgs...), "-epoch-interval", "0")
	ctx := context.Background()
	base := "http://" + *addr
	target := loadgen.NewHTTPTarget(base,
		loadgen.WithRequestTimeout(2*time.Second),
		loadgen.WithRetry(3, 10*time.Millisecond),
	)
	httpc := &http.Client{Timeout: 2 * time.Second}
	cfg := loadgen.Config{Concurrency: *concurrency, Ops: *ops, Seed: *seed}

	// Phase 1: boot.
	d, err := startDaemon(*daemon, stderr, bootArgs...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	current.Store(d.cmd)
	defer func() {
		if c := current.Load(); c != nil && c.Process != nil {
			_ = c.Process.Kill()
		}
	}()
	if err := target.WaitReady(ctx, 30*time.Second); err != nil {
		fmt.Fprintf(stderr, "chaos: boot: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "chaos: daemon up at %s (n=%d, data-dir=%s)\n", *addr, *n, dir)

	// The trail poller shadows the first daemon's whole life, recording the
	// fingerprint of every epoch it serves; the restart is checked against
	// this record.
	stopTrail := make(chan struct{})
	trail, trailMu := fingerprintTrail(httpc, base, stopTrail)

	// Phase 2: adversarial pressure — the three attack workloads, with the
	// background epoch ticker churning underneath. Failures are tolerated
	// here (that is what the attacks are for); transport-level hangs are
	// not, which the per-attempt timeout enforces.
	for _, g := range loadgen.AttackSuite(*keys, *advanceEvery) {
		res, err := loadgen.Run(ctx, target, g, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "chaos: attack %s: %v\n", g.Name(), err)
			return 1
		}
		fmt.Fprintf(stdout, "chaos: attack %-14s ops=%d ok=%d success=%.3f retries=%d by_status=%v\n",
			res.Workload, res.Ops, res.OK, res.SuccessRate, res.Retries, res.ByStatus)
	}

	// Phase 2.5: store keys the restart must serve back. Only acknowledged
	// puts count — the op log's contract covers exactly the writes the
	// daemon confirmed.
	durable := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("chaos-durable-%02d", i)
		val := []byte(fmt.Sprintf("survives-the-kill-%02d", i))
		if putKey(httpc, base, key, val) {
			durable[key] = val
		}
	}
	if len(durable) == 0 {
		fmt.Fprintln(stderr, "chaos: FAIL — no durable put was acknowledged before the kill")
		return 1
	}
	fmt.Fprintf(stdout, "chaos: %d durable keys acknowledged pre-kill\n", len(durable))

	// Phase 3: SIGKILL mid-epoch. An explicit advance is fired and the
	// process killed while it is in flight — between the ticker and this,
	// the crash lands inside an epoch construction with high probability.
	advCtx, advCancel := context.WithTimeout(ctx, 10*time.Second)
	go func() {
		defer advCancel()
		_, _ = target.Do(advCtx, loadgen.Op{Kind: loadgen.KindAdvance})
	}()
	time.Sleep(25 * time.Millisecond)
	d.kill()
	advCancel()
	close(stopTrail)
	fmt.Fprintln(stdout, "chaos: daemon SIGKILLed mid-epoch")

	// Phase 4: restart on the same data dir and require /healthz green.
	d2, err := startDaemon(*daemon, stderr, restartArgs...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	current.Store(d2.cmd)
	if err := target.WaitReady(ctx, 30*time.Second); err != nil {
		fmt.Fprintf(stderr, "chaos: restart: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "chaos: daemon restarted, healthz green")

	// Phase 4.5: the restart must be a recovery from disk, not a fresh
	// bootstrap. recovered=true plus the acknowledged keys are the proof
	// (same-seed re-bootstrap reproduces fingerprints but not stored keys);
	// the fingerprint trail pins the recovered epoch to the exact
	// generation the first daemon served at that boundary.
	h, err := fetchHealth(httpc, base)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: post-restart healthz: %v\n", err)
		return 1
	}
	if !h.Durable || !h.Recovered {
		fmt.Fprintf(stderr, "chaos: FAIL — restarted daemon did not recover from disk (durable=%v recovered=%v)\n",
			h.Durable, h.Recovered)
		return 1
	}
	trailMu.Lock()
	var maxSeen int64 = -1
	for e := range trail {
		if e > maxSeen {
			maxSeen = e
		}
	}
	wantFP, sampled := trail[h.Epoch]
	trailMu.Unlock()
	if h.Epoch < maxSeen {
		fmt.Fprintf(stderr, "chaos: FAIL — recovered epoch %d older than last observed boundary %d\n",
			h.Epoch, maxSeen)
		return 1
	}
	if sampled && h.Fingerprint != wantFP {
		fmt.Fprintf(stderr, "chaos: FAIL — epoch %d fingerprint %s != pre-kill %s\n",
			h.Epoch, h.Fingerprint, wantFP)
		return 1
	}
	recoveredKeys := 0
	for key, want := range durable {
		got, ok := getKey(httpc, base, key)
		if !ok || !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "chaos: FAIL — durable key %q lost across the kill (ok=%v)\n", key, ok)
			return 1
		}
		recoveredKeys++
	}
	fmt.Fprintf(stdout, "chaos: recovery verified — epoch %d (snapshot %d, fingerprint %s, sampled=%v), %d/%d keys intact\n",
		h.Epoch, h.SnapshotEpoch, h.Fingerprint, sampled, recoveredKeys, len(durable))

	// Phase 5: friendly tail — uniform lookups against the restarted
	// daemon must clear the success floor (the conceded ε of Theorem 3 is
	// well under 1% at these sizes).
	tail, err := loadgen.Run(ctx, target, loadgen.Uniform(*keys), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: friendly tail: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "chaos: tail ops=%d ok=%d success=%.4f retries=%d by_status=%v\n",
		tail.Ops, tail.OK, tail.SuccessRate, tail.Retries, tail.ByStatus)
	if tail.SuccessRate < *floor {
		fmt.Fprintf(stderr, "chaos: FAIL — post-restart success %.4f below floor %.4f\n",
			tail.SuccessRate, *floor)
		return 1
	}

	// Phase 6: a second, quiet crash — the snapshot + op-log shape alone,
	// with no attack load and no timing games. The restarted daemon holds
	// its epoch still, so one explicit advance writes a boundary snapshot,
	// a put after it lives only in the op log, and recovery must land on
	// exactly the recorded epoch and fingerprint, not a sampled trail.
	if _, err := target.Do(ctx, loadgen.Op{Kind: loadgen.KindAdvance}); err != nil {
		fmt.Fprintf(stderr, "chaos: quiet-crash advance: %v\n", err)
		return 1
	}
	tailKey, tailVal := "", []byte("survives-the-oplog-replay")
	for i := 0; i < 8 && tailKey == ""; i++ {
		if key := fmt.Sprintf("chaos-oplog-tail-%d", i); putKey(httpc, base, key, tailVal) {
			tailKey = key
		}
	}
	if tailKey == "" {
		fmt.Fprintln(stderr, "chaos: FAIL — no op-log tail put was acknowledged")
		return 1
	}
	durable[tailKey] = tailVal
	before, err := fetchHealth(httpc, base)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: pre-kill healthz: %v\n", err)
		return 1
	}
	d2.kill()
	d3, err := startDaemon(*daemon, stderr, restartArgs...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	current.Store(d3.cmd)
	if err := target.WaitReady(ctx, 30*time.Second); err != nil {
		fmt.Fprintf(stderr, "chaos: second restart: %v\n", err)
		return 1
	}
	after, err := fetchHealth(httpc, base)
	if err != nil {
		fmt.Fprintf(stderr, "chaos: second post-restart healthz: %v\n", err)
		return 1
	}
	if !after.Recovered || after.Epoch != before.Epoch || after.Fingerprint != before.Fingerprint {
		fmt.Fprintf(stderr, "chaos: FAIL — quiet crash recovered=%v at epoch %d/%s, want %d/%s\n",
			after.Recovered, after.Epoch, after.Fingerprint, before.Epoch, before.Fingerprint)
		return 1
	}
	for key, want := range durable {
		if got, ok := getKey(httpc, base, key); !ok || !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "chaos: FAIL — key %q lost across the quiet crash (ok=%v)\n", key, ok)
			return 1
		}
	}
	fmt.Fprintf(stdout, "chaos: quiet crash verified — epoch %d fingerprint %s, %d keys intact (op-log tail %s)\n",
		after.Epoch, after.Fingerprint, len(durable), tailKey)

	// Phase 7: graceful drain of the survivor.
	current.Store(nil)
	if err := d3.stop(30 * time.Second); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "chaos: PASS — recovered at %.4f success (floor %.2f), quiet crash exact, clean drain\n",
		tail.SuccessRate, *floor)
	return 0
}
