// Command loadgen drives deterministic workloads against a running
// tinygroupsd daemon and records the measured service level — throughput
// and latency quantiles per workload — as a bench-JSON document.
//
// Usage:
//
//	loadgen [-addr URL] [-ops N] [-concurrency C] [-seed S] [-keys K]
//	        [-workloads LIST] [-zipf-skew X] [-write-frac F]
//	        [-advance-every N] [-storm-every N] [-mint-every N] [-bulk-size B]
//	        [-flood-burst B] [-victim KEY] [-near-pool P] [-eclipse-span F]
//	        [-retries R] [-retry-base D] [-request-timeout D] [-out FILE]
//
// The default sweep runs the six canonical workloads (uniform,
// zipf-hotspot, readwrite-mix, churn-heavy, epoch-storm, mint-storm) and
// writes the report to stdout (-out FILE writes it to a file instead). The
// three adversarial workloads (join-flood, targeted-churn, eclipse-storm)
// are selected explicitly via -workloads, as is bulk-read, the
// batched-lookup workload that exercises a router's scatter-gather plane.
// Op streams are pure functions of (seed, index) — see tinygroups/loadgen
// — so two sweeps with equal seeds send byte-identical operation
// sequences regardless of concurrency.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/tinygroups/loadgen"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, waits for the daemon, executes the sweep and writes
// the report. It returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8477", "base URL of the tinygroupsd daemon")
	ops := fs.Int("ops", 2000, "operations per workload")
	concurrency := fs.Int("concurrency", 4, "closed-loop client count")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds send identical op streams")
	keys := fs.Int("keys", 512, "keyspace size")
	workloads := fs.String("workloads", "uniform,zipf-hotspot,readwrite-mix,churn-heavy,epoch-storm,mint-storm",
		"comma-separated workload names to run, in order")
	zipfSkew := fs.Float64("zipf-skew", 4, "zipf-hotspot skew exponent (1 = uniform)")
	writeFrac := fs.Float64("write-frac", 0.1, "readwrite-mix put share in [0,1]")
	advanceEvery := fs.Int("advance-every", 500, "churn-heavy: one epoch advance per this many ops")
	stormEvery := fs.Int("storm-every", 100, "epoch-storm: one epoch advance per this many ops")
	mintEvery := fs.Int("mint-every", 500, "mint-storm: one epoch advance per this many ops")
	bulkSize := fs.Int("bulk-size", 16, "bulk-read: keys per batched lookup call")
	floodBurst := fs.Int("flood-burst", 16, "join-flood: adversarial mints packed before each advance")
	victim := fs.String("victim", "victim", "targeted-churn: key whose ring range the churn concentrates on")
	nearPool := fs.Int("near-pool", 8, "targeted-churn/eclipse-storm: candidate keys drawn per op (concentration strength)")
	eclipseSpan := fs.Float64("eclipse-span", 0.125, "eclipse-storm: attacked arc as a fraction of the ring")
	retries := fs.Int("retries", 0, "max extra attempts per op on 429/503 (0 = no retries)")
	retryBase := fs.Duration("retry-base", 25*time.Millisecond, "decorrelated-jitter backoff base between retries")
	requestTimeout := fs.Duration("request-timeout", 0, "per-attempt HTTP timeout (0 = target default)")
	out := fs.String("out", "-", `report file ("-" = stdout)`)
	readyTimeout := fs.Duration("ready-timeout", 30*time.Second, "how long to wait for /healthz")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(fs.Args()) != 0 {
		fmt.Fprintf(stderr, "loadgen: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *keys < 1 {
		fmt.Fprintf(stderr, "loadgen: -keys must be >= 1 (got %d)\n", *keys)
		return 2
	}

	gens, err := pickWorkloads(workloadParams{
		keys: *keys, zipfSkew: *zipfSkew, writeFrac: *writeFrac,
		advanceEvery: *advanceEvery, stormEvery: *stormEvery, mintEvery: *mintEvery, bulkSize: *bulkSize,
		floodBurst: *floodBurst, victim: *victim, nearPool: *nearPool, eclipseSpan: *eclipseSpan,
	}, *workloads)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}

	target := loadgen.NewHTTPTarget(*addr,
		loadgen.WithRequestTimeout(*requestTimeout),
		loadgen.WithRetry(*retries, *retryBase),
	)
	if err := target.WaitReady(ctx, *readyTimeout); err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}

	cfg := loadgen.Config{Concurrency: *concurrency, Ops: *ops, Seed: *seed}
	rep, err := loadgen.RunSuite(ctx, target, gens, cfg)
	rep.Target = *addr
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}

	if err := writeReport(rep, *out, stdout); err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 1
	}
	printSummary(stdout, rep)
	return 0
}

// workloadParams bundles the per-workload tuning flags for pickWorkloads.
type workloadParams struct {
	keys                                int
	zipfSkew, writeFrac, eclipseSpan    float64
	advanceEvery, stormEvery, mintEvery int
	floodBurst, nearPool, bulkSize      int
	victim                              string
}

// pickWorkloads resolves the -workloads list against the built-in
// generators — friendly and adversarial — parameterized by the tuning
// flags.
func pickWorkloads(p workloadParams, list string) ([]loadgen.Generator, error) {
	byName := map[string]loadgen.Generator{}
	var known []string
	for _, g := range []loadgen.Generator{
		loadgen.Uniform(p.keys),
		loadgen.ZipfHotspot(p.keys, p.zipfSkew),
		loadgen.ReadWriteMix(p.keys, p.writeFrac),
		loadgen.ChurnHeavy(p.keys, p.advanceEvery),
		loadgen.EpochStorm(p.keys, p.stormEvery),
		loadgen.MintStorm(p.mintEvery),
		loadgen.BulkRead(p.keys, p.bulkSize),
		loadgen.JoinFlood(p.keys, p.advanceEvery, p.floodBurst),
		loadgen.TargetedChurn(p.keys, p.advanceEvery, p.nearPool, p.victim),
		loadgen.EclipseStorm(p.keys, p.advanceEvery, p.nearPool, p.eclipseSpan),
	} {
		byName[g.Name()] = g
		known = append(known, g.Name())
	}
	var gens []loadgen.Generator
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		g, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
		}
		gens = append(gens, g)
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("no workloads selected")
	}
	return gens, nil
}

// writeReport writes the JSON document to the -out destination.
func writeReport(rep loadgen.Report, out string, stdout io.Writer) error {
	if out == "-" {
		return rep.WriteJSON(stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSummary renders the human-readable sweep table.
func printSummary(w io.Writer, rep loadgen.Report) {
	tab := metrics.Table{Header: []string{
		"workload", "ops", "ok", "succ", "unreach", "notfound", "err", "retries", "ops/s", "p50 ms", "p99 ms", "read p99", "mint p99",
	}}
	for _, r := range rep.Workloads {
		readP99, mintP99 := "-", "-"
		if r.ReadOps > 0 {
			readP99 = fmt.Sprintf("%.2f", r.ReadP99Millis)
		}
		if r.MintOps > 0 {
			mintP99 = fmt.Sprintf("%.2f", r.MintP99Millis)
		}
		tab.Append(r.Workload,
			fmt.Sprintf("%d", r.Ops), fmt.Sprintf("%d", r.OK),
			fmt.Sprintf("%.3f", r.SuccessRate),
			fmt.Sprintf("%d", r.Unreachable), fmt.Sprintf("%d", r.NotFound),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2f", r.P50Millis), fmt.Sprintf("%.2f", r.P99Millis),
			readP99, mintP99,
		)
	}
	fmt.Fprintf(w, "%s(%d clients, seed %d)\n", tab.String(), rep.Concurrency, rep.Seed)
}
