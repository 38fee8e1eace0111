package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/tinygroups"
	"repro/tinygroups/loadgen"
)

// The traced run. The HTTP phases ran exactly as in the untraced run; on
// top of them this file times, in this process, calls into each layer's
// public functions — serve.Server.Handler, tinygroups.System, the epoch
// build/flip, the snapshot save/restore, the PoW miner — recording one
// span per call, and reads the daemon-side counters the phases collected.
// No code outside the benchmark's directory is instrumented.

// span is one timed call at a layer boundary. Client spans carry the op's
// due time too; Parent names the span that caused it, when one did.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent string `json:"parent,omitempty"`
	DueNs  int64  `json:"due_ns,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Code   string `json:"code,omitempty"`
}

// Sizes of the in-process loops.
const (
	layerLookups   = 20000
	layerHandlerOp = 5000
	layerPuts      = 2000
	layerEpochs    = 3
	layerMints     = 20
)

type timer struct {
	b     *bench
	epoch time.Time
}

// timeEach runs fn n times, recording a span per call, and returns the
// sorted per-call durations in µs and the heap allocations per call.
func (t *timer) timeEach(name string, n int, fn func(i int) error) ([]float64, float64, error) {
	durs := make([]float64, n)
	spans := make([]span, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		s := time.Now()
		if err := fn(i); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		e := time.Now()
		durs[i] = float64(e.Sub(s)) / 1e3
		spans[i] = span{Name: name, ID: i, Start: s.Sub(t.epoch).Nanoseconds(), End: e.Sub(t.epoch).Nanoseconds()}
	}
	runtime.ReadMemStats(&m1)
	t.b.spans = append(t.b.spans, spans...)
	sort.Float64s(durs)
	return durs, float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// discardWriter is a reusable http.ResponseWriter that drops the body, so
// the handler's own allocations are what the count sees.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

func (b *bench) perLayer(ctx context.Context) ([]detail, error) {
	t := &timer{b: b, epoch: time.Now()}
	var out []detail
	add := func(name string, v float64, unit string, n int, note string) {
		out = append(out, detail{name, v, unit, n, note})
	}

	// Driver and transport, from the HTTP phases.
	var late []float64
	for _, o := range b.phases[b.mainPhase()] {
		if o.kind != kAdvance {
			late = append(late, float64(o.sent.Sub(o.due))/1e6)
		}
	}
	sort.Float64s(late)
	add("client.late_ms", quantile(late, 0.99), "ms", len(late), "p99 send lateness, main window")
	reads := opSamples(b.ofKind("read", kLookup, kGet))
	puts := opSamples(b.ofKind("rw", kPut))
	for _, q := range []float64{0.9, 0.99} {
		name := fmt.Sprintf("p%.0f", 100*q)
		v, n, note := b.calmQuantile(reads, q)
		add("client.read_"+name+"_ms", v, "ms", n, "reads of the read phase, "+note)
		v, n, note = b.calmQuantile(puts, q)
		add("client.put_"+name+"_ms", v, "ms", n, "puts of the rw phase, "+note)
	}
	churnReads := opSamples(b.ofKind("churn", kLookup))
	for _, q := range []float64{0.5, 0.99} {
		v, n, note := b.calmQuantile(churnReads, q)
		add(fmt.Sprintf("client.churn_read_p%.0f_ms", 100*q), v, "ms", n, "lookups of the churn phase, beside an epoch build, "+note)
	}
	v, n, note := b.calmQuantile(b.capacity, 0.5)
	add("client.read_capacity_ops_s", v, "ops/s", n*capacityOps, "closed-loop reads on both conns, median over slices, "+note)
	advs := b.calm(opSamples(b.ofKind("churn", kAdvance)))
	advTail, advNote := tail(advs)
	add("client.advance_tail_ms", advTail, "ms", len(advs), "calm advances into healthy epochs, "+advNote)
	mints := latencies(b.ofKind("churn", kMint))
	add("client.mint_p50_ms", quantile(mints, 0.5), "ms", len(mints), "churn phase")
	v, n, note = b.calmQuantile(reads, 0.5)
	add("trace.read_p50_ms", v, "ms", n, "read_p50_ms of this traced run; minus the untraced run's is the tracing overhead; "+note)

	var service []float64
	for _, o := range b.ofKind("read", kLookup) {
		if o.ok() {
			service = append(service, float64(o.done.Sub(o.sent))/1e3)
		}
	}
	sort.Float64s(service)

	// tinygroups and groups: an in-process durable System like the daemon's.
	dir := b.dataDir("layers")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sys, err := tinygroups.New(sysN, tinygroups.WithSeed(sysSeed), tinygroups.WithDataDir(dir))
	if err != nil {
		return nil, err
	}
	srv := serve.New(sys, serve.Config{})
	defer srv.Shutdown(ctx) // closes sys; an error here only follows an earlier one
	pairs := make([]tinygroups.KV, keys)
	for k := range pairs {
		pairs[k] = tinygroups.KV{Key: keyName(k), Value: []byte(keyName(k))}
	}
	if _, err := sys.PutBatch(ctx, pairs); err != nil {
		return nil, err
	}
	seed := b.phaseSeed("layers")
	gen := loadgen.Uniform(keys)
	lkeys := make([]string, layerLookups)
	for i := range lkeys {
		lkeys[i] = gen.Op(seed, i).Key
	}
	var hops, found int
	lookup := func(i int) error {
		info, err := sys.Lookup(ctx, lkeys[i])
		if err == nil {
			hops += info.Hops
			found++
		}
		return ignoreUnreachable(err)
	}
	d, allocs, err := t.timeEach("tinygroups.Lookup", layerLookups, lookup)
	if err != nil {
		return nil, err
	}
	add("tinygroups.lookup_us", quantile(d, 0.5), "us", len(d), "median System.Lookup")
	add("tinygroups.lookup_allocs", allocs, "allocs/op", len(d), "")
	add("groups.hops_per_lookup", float64(hops)/float64(found), "hops", found, "mean LookupInfo.Hops, epoch 0")
	d, _, err = t.timeEach("tinygroups.Get", layerLookups, func(i int) error {
		_, _, err := sys.Get(ctx, lkeys[i])
		return ignoreUnreachable(err)
	})
	if err != nil {
		return nil, err
	}
	add("tinygroups.get_us", quantile(d, 0.5), "us", len(d), "median System.Get")

	batchMean := float64(b.putOps) / float64(max(1, b.putCalls))
	batch := max(1, int(batchMean+0.5))
	nb := max(1, layerPuts/batch)
	d, allocs, err = t.timeEach("tinygroups.PutBatch", nb, func(i int) error {
		kv := make([]tinygroups.KV, batch)
		for j := range kv {
			k := lkeys[(i*batch+j)%len(lkeys)]
			kv[j] = tinygroups.KV{Key: k, Value: []byte(k)}
		}
		_, err := sys.PutBatch(ctx, kv)
		return err
	})
	if err != nil {
		return nil, err
	}
	add("tinygroups.putbatch_us_per_op", quantile(d, 0.5)/float64(batch), "us", len(d), fmt.Sprintf("median durable PutBatch of %d ÷ %d", batch, batch))
	add("tinygroups.putbatch_allocs_per_op", allocs/float64(batch), "allocs/op", len(d), "")

	// serve: the daemon's handler, mounted in process.
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	bodies := make([][]byte, layerHandlerOp)
	for i := range bodies {
		bodies[i] = []byte(`{"key":"` + lkeys[i] + `"}`)
	}
	reqs := make([]*http.Request, layerHandlerOp)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(bodies[i]))
	}
	d, allocs, err = t.timeEach("serve.lookup", layerHandlerOp, func(i int) error {
		clear(w.h)
		h.ServeHTTP(w, reqs[i])
		return handlerErr(w.code)
	})
	if err != nil {
		return nil, err
	}
	add("serve.lookup_us", quantile(d, 0.5), "us", len(d), "median Server.Handler /v1/lookup")
	add("serve.lookup_allocs", allocs, "allocs/op", len(d), "")
	add("transport.read_us", quantile(service, 0.5)-quantile(d, 0.5), "us", len(service),
		"median HTTP lookup (send → reply) in the read phase − median in-process handler span")

	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/put",
			strings.NewReader(`{"key":"`+lkeys[i]+`","value":"dmFsdWU="}`))
	}
	d, _, err = t.timeEach("serve.put", layerPuts, func(i int) error {
		clear(w.h)
		h.ServeHTTP(w, reqs[i])
		return handlerErr(w.code)
	})
	if err != nil {
		return nil, err
	}
	add("serve.put_us", quantile(d, 0.5), "us", len(d), "median Server.Handler /v1/put, durable, one conn")
	add("serve.put_batch_mean", batchMean, "ops/batch", int(b.putCalls), "daemon /metrics put_ops ÷ put_calls over the rw slices")

	d, _, err = t.timeEach("serve.advance", layerEpochs, func(int) error {
		clear(w.h)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/epoch/advance", nil))
		return handlerErr(w.code)
	})
	if err != nil {
		return nil, err
	}
	add("serve.advance_ms", quantile(d, 0.5)/1e3, "ms", len(d), "median Server.Handler /v1/epoch/advance, durable")

	cpuUs := float64(b.cpuTicks) * float64(clockTick/time.Microsecond)
	add("daemon.cpu_us_per_op", cpuUs/float64(max(1, b.mainCount)), "us", b.mainCount, "daemon utime+stime over the main window ÷ its ops")

	// snapshot: save on the durable System, restore a copy of the dir the
	// benchmark SIGKILLed.
	d, _, err = t.timeEach("snapshot.SaveSnapshot", layerEpochs, func(int) error { return sys.SaveSnapshot() })
	if err != nil {
		return nil, err
	}
	add("snapshot.save_ms", quantile(d, 0.5)/1e3, "ms", len(d), "median System.SaveSnapshot")
	size, err := newestFileSize(dir, "snap-*.tgsnap")
	if err != nil {
		return nil, err
	}
	add("snapshot.bytes", float64(size), "bytes", 1, "newest snapshot file")
	restoreDir := b.dataDir("layers-restore")
	var restoreUs []float64
	for i := 0; i < layerEpochs; i++ {
		if err := copyDir(b.killedDir, restoreDir); err != nil {
			return nil, err
		}
		rd, _, err := t.timeEach("snapshot.restore", 1, func(int) error {
			r, err := tinygroups.New(sysN, tinygroups.WithSeed(sysSeed), tinygroups.WithDataDir(restoreDir))
			if err != nil {
				return err
			}
			return r.Close()
		})
		if err != nil {
			return nil, err
		}
		restoreUs = append(restoreUs, rd...)
	}
	add("snapshot.restore_ms", median(restoreUs)/1e3, "ms", len(restoreUs), "median tinygroups.New on a copy of the killed dir")
	add("snapshot.replayed_ops", float64(b.replayedOps), "ops", 1, "daemon /metrics replayed_ops after the restart that follows round 0's last rw slice")
	add("snapshot.oplog_bytes_per_put", float64(b.oplogBytes)/float64(max(1, b.oplogAppends)), "bytes", int(b.oplogAppends),
		"op-log file size at the SIGKILL after round 0's last rw slice ÷ that slice's appends")

	// epoch: two-phase build and flip on an in-memory System.
	mem, err := tinygroups.New(sysN, tinygroups.WithSeed(sysSeed))
	if err != nil {
		return nil, err
	}
	defer mem.Close()
	var searches int64
	var allocMB float64
	var builds, flips []float64
	for i := 0; i < layerEpochs; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bd, _, err := t.timeEach("epoch.BuildEpoch", 1, func(int) error {
			st, err := mem.BuildEpoch(ctx)
			searches += st.Searches
			return err
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		fd, _, err := t.timeEach("epoch.CommitEpoch", 1, func(int) error {
			_, err := mem.CommitEpoch()
			return err
		})
		if err != nil {
			return nil, err
		}
		builds, flips = append(builds, bd...), append(flips, fd...)
	}
	add("epoch.build_ms", median(builds)/1e3, "ms", len(builds), "median System.BuildEpoch, in-memory")
	add("epoch.build_alloc_mb", allocMB/layerEpochs, "MiB", layerEpochs, "mean bytes allocated per BuildEpoch")
	add("epoch.searches", float64(searches)/layerEpochs, "searches", layerEpochs, "mean Stats.Searches per build")
	add("epoch.flip_ms", median(flips)/1e3, "ms", len(flips), "median System.CommitEpoch, in-memory")
	var red, sfr float64
	for _, o := range b.ofKind("churn", kAdvance) {
		red = max(red, o.stats.RedFraction[0], o.stats.RedFraction[1])
		sfr = max(sfr, o.stats.SearchFailRate)
	}
	add("epoch.red_frac", red, "frac", len(b.ofKind("churn", kAdvance)), "max RedFraction in the churn phase's advance replies")
	add("epoch.search_fail_rate", sfr, "frac", len(b.ofKind("churn", kAdvance)), "max SearchFailRate in the churn phase's advance replies")

	// pow: the miner behind /v1/mint.
	var attempts int
	d, _, err = t.timeEach("pow.Mint", layerMints, func(i int) error {
		r, err := mem.Mint(ctx, fmt.Sprintf("layers-%d-%d", seed, i))
		attempts += r.Attempts
		return err
	})
	if err != nil {
		return nil, err
	}
	add("pow.mint_ms", quantile(d, 0.5)/1e3, "ms", len(d), "median System.Mint")
	add("pow.attempts_per_mint", float64(attempts)/layerMints, "attempts", layerMints, "mean MintResult.Attempts")
	return out, nil
}

// ignoreUnreachable drops the errors a correct System returns for some
// keys: a failed search, or a key the search found unstored.
func ignoreUnreachable(err error) error {
	if errors.Is(err, tinygroups.ErrUnreachable) || errors.Is(err, tinygroups.ErrNotFound) {
		return nil
	}
	return err
}

// handlerErr maps a handler's status to an error; 502 is the unreachable
// answer a correct handler gives for some keys.
func handlerErr(code int) error {
	if code == 0 || code == http.StatusOK || code == http.StatusBadGateway {
		return nil
	}
	return fmt.Errorf("handler answered %d", code)
}

// writeTrace writes every span of the run — one client span per HTTP op,
// then the in-process spans — as JSON lines under the work directory.
func (b *bench) writeTrace() error {
	path := filepath.Join(b.cfg.work, fmt.Sprintf("trace-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var t0 time.Time
	for _, ops := range b.phases {
		for _, o := range ops {
			if t0.IsZero() || o.due.Before(t0) {
				t0 = o.due
			}
		}
	}
	for phase, ops := range b.phases {
		for i, o := range ops {
			s := span{Name: "client." + o.kind.String(), ID: i, Parent: "phase." + phase,
				DueNs: o.due.Sub(t0).Nanoseconds(), Start: o.sent.Sub(t0).Nanoseconds(),
				End: o.done.Sub(t0).Nanoseconds(), Code: o.code}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, s := range b.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
