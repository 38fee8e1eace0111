// Command perfbench is the repository benchmark: it boots the real
// tinygroupsd (n = 8192, one process, durable data dir), drives one of
// two open-loop workloads against it from this single load process over
// at most two connections, checks every reply against an in-process
// replica, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). perfbench/run.py builds both binaries from the
// checkout and is the command to run; see perfbench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// loadHeapLimit bounds the load process's heap; see main.
const loadHeapLimit = 256 << 20

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	daemonBin string
	work      string
	commit    string
	source    string
}

var workloads = []string{"read-steady", "epoch-churn"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "read-steady | epoch-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives every op stream, key and value")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the workload's main timed window")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.daemonBin, "daemon", "", "path of the tinygroupsd binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for data dirs and traces")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the checkout, for the header")
	flag.StringVar(&cfg.source, "source-digest", "unknown", "digest of the checkout's source files, for the header")
	flag.Parse()
	cfg.trace = trace == 1
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < 1 || cfg.daemonBin == "" || cfg.work == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload read-steady|epoch-churn, --seconds ≥ 1, --trace 0|1, --daemon and --work")
		os.Exit(2)
	}
	// Senders block their threads in sleepUntil while holding a P; one
	// spare P keeps the HTTP transport running meanwhile. The load process
	// still opens at most two connections.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	// A collection in the load process stalls its senders and would show
	// up as lateness in every op queued behind it: collect only when the
	// heap reaches loadHeapLimit, which a run's garbage seldom does.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(loadHeapLimit)
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is one metric with its sample count and how it was taken,
// printed on its own line before the result.
type detail struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	printJSON(map[string]any{"env": envHeader(cfg)})
	b := &bench{cfg: cfg}
	err := b.run(ctx)
	b.d.kill()
	for _, c := range b.conn {
		if c != nil {
			c.close()
		}
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, ops := range b.phases {
		for _, o := range ops {
			res.Attempted++
			if o.failed() {
				res.Failed++
			}
		}
	}
	if err := b.check(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	var details []detail
	if cfg.trace {
		details, err = b.perLayer(ctx)
		if err != nil {
			return nil, err
		}
		if err := b.writeTrace(); err != nil {
			return nil, err
		}
	} else {
		details = b.endToEnd(res)
	}
	// Every advance reply's epoch-health figures, the collapse guard's record.
	var advances [][4]float64
	for _, o := range b.ofKind("churn", kAdvance) {
		advances = append(advances, [4]float64{float64(o.stats.Epoch), o.stats.RedFraction[0], o.stats.RedFraction[1], o.stats.SearchFailRate})
	}
	printJSON(map[string]any{"advances_epoch_red0_red1_searchfail": advances})
	for _, d := range details {
		printJSON(map[string]any{"metric": d})
		res.Metrics[d.Name] = metric{Value: d.Value, Unit: d.Unit}
	}
	return res, nil
}

// ofKind returns the ops of phase whose kind is one of kinds.
func (b *bench) ofKind(phase string, kinds ...kind) []*op {
	var out []*op
	for _, o := range b.phases[phase] {
		if slices.Contains(kinds, o.kind) {
			out = append(out, o)
		}
	}
	return out
}

// latencies returns the sorted latencies in ms of the ops that succeeded.
func latencies(ops []*op) []float64 {
	var out []float64
	for _, o := range ops {
		if !o.failed() {
			out = append(out, float64(o.latency())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// calmQuantile is the q-quantile of the calm samples of xs (see calm),
// with their count and a note saying how many were left out.
func (b *bench) calmQuantile(xs []sample, q float64) (float64, int, string) {
	c := b.calm(xs)
	return quantile(c, q), len(c), fmt.Sprintf("%d of %d samples: those with ≤ %.0f%% steal around them", len(c), len(xs), 100*stealLimit)
}

// tail is the highest percentile with at least ten samples beyond it:
// the value at sorted index len−11.
func tail(sorted []float64) (float64, string) {
	if len(sorted) <= 10 {
		return sorted[len(sorted)-1], "max (fewer than 11 samples)"
	}
	i := len(sorted) - 11
	return sorted[i], fmt.Sprintf("p%.1f", 100*float64(i+1)/float64(len(sorted)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func (b *bench) endToEnd(res *result) []detail {
	setup, nSetup, setupNote := b.calmQuantile(b.setupS, 0.5)
	read, nRead, readNote := b.calmQuantile(opSamples(b.ofKind("read", kLookup, kGet)), 0.5)
	put, nPut, putNote := b.calmQuantile(opSamples(b.ofKind("rw", kPut)), 0.5)
	recov, nRecov, recovNote := b.calmQuantile(b.recoverS, 0.5)
	advs := b.calm(opSamples(b.ofKind("churn", kAdvance)))
	var msgs, n float64
	for _, ops := range b.phases {
		for _, o := range ops {
			if o.ok() && (o.kind == kLookup || o.kind == kGet || o.kind == kPut) {
				msgs += float64(o.messages)
				n++
			}
		}
	}
	rss := slices.Sorted(slices.Values(b.rssMB))
	printJSON(map[string]any{"rounds": b.roundFigures(), "daemon_rss_mb": rss})
	return []detail{
		{"setup_s", setup, "s", nSetup, "median daemon exec → first /healthz 200, " + setupNote},
		{"read_p50_ms", read, "ms", nRead, "read phase, " + readNote},
		{"put_p50_ms", put, "ms", nPut, "rw phase, " + putNote},
		{"recover_s", recov, "s", nRecov, "median SIGKILL → first accepted get, " + recovNote},
		{"advance_p50_ms", quantile(advs, 0.5), "ms", len(advs), "churn phase, calm advances into healthy epochs"},
		{"ok_frac", 1 - float64(res.Failed)/float64(res.Attempted), "frac", res.Attempted, "1 − fail_frac over every op of the run"},
		{"msgs_per_lookup", msgs / n, "msgs", int(n), "every routed reply of the run"},
		{"daemon_rss_mb", quantile(rss, 0.75), "MiB", len(rss), "upper quartile of the VmHWM of the daemon processes that served a churn slice, at their end"},
	}
}

// roundFigures is every round's own median of each timing, every sample
// included, and the round's steal, for the record.
func (b *bench) roundFigures() map[string]any {
	p50s := func(xs []sample) []any {
		var byRound [rounds][]float64
		for _, x := range xs {
			byRound[x.round] = append(byRound[x.round], x.v)
		}
		out := make([]any, rounds) // null for a round without samples
		for r, vs := range byRound {
			if len(vs) > 0 {
				out[r] = median(vs)
			}
		}
		return out
	}
	return map[string]any{
		"steal":          b.steal,
		"setup_s":        p50s(b.setupS),
		"recover_s":      p50s(b.recoverS),
		"read_p50_ms":    p50s(opSamples(b.ofKind("read", kLookup, kGet))),
		"put_p50_ms":     p50s(opSamples(b.ofKind("rw", kPut))),
		"advance_p50_ms": p50s(opSamples(b.ofKind("churn", kAdvance))),
		"capacity":       p50s(b.capacity),
	}
}

func printJSON(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings
	}
	fmt.Println(string(out))
}

// envHeader describes the machine and inputs a result was measured on.
func envHeader(cfg config) map[string]any {
	return map[string]any{
		"go_version":    runtime.Version(),
		"gomaxprocs":    daemonProcs(),
		"load_procs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"commit":        cfg.commit,
		"source_digest": cfg.source,
		"n":             sysN,
		"system_seed":   sysSeed,
		"workload":      cfg.workload,
		"workload_seed": cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

// daemonProcs is the GOMAXPROCS the daemon runs with: it inherits the
// environment and sets nothing itself.
func daemonProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
