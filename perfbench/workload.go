package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/tinygroups/loadgen"
)

// The served system. n and its seed are fixed for every workload so each
// run starts from the same state; the workload seed only drives the op
// stream. Seed 1 is tinygroupsd's own default.
const (
	sysN    = 8192
	sysSeed = 1
)

// Workload shape. A run is `rounds` rounds, each running a slice of every
// phase in the same order (see bench.round). The machine this runs on is
// shared and its speed drifts for seconds at a time; spreading every
// metric's samples over the whole run and reporting medians keeps one slow
// spell from moving a run's figures. The workload decides which phase is
// its main window (read-steady: read, epoch-churn: churn), --seconds long
// in total; the others run in their short form.
const (
	rounds = 16

	keys     = 4096              // preloaded keyspace, k00000000..k00004095
	probeKey = "perfbench-probe" // preloaded, never rewritten: the recovery probe

	preloadBatch = 2048 // pairs per /v1/put/batch; the daemon takes at most 4096

	setupBootsPerRound = 1 // throwaway boots per round; setup_s is the median of the calm boots
	restartsPerRound   = 2 // rw slices per round, each followed by a SIGKILL and restart

	// capturedSlice is the rw slice whose SIGKILL the traced run's op-log
	// and restore figures come from: the last of round 0, before any
	// advance, so that it is a healthy epoch's on every workload, and
	// after a restart, so that its op log holds that slice's puts only.
	capturedSlice = restartsPerRound - 1

	readRate        = 2000.0 // ops/s, half /v1/lookup, half /v1/get
	rwRate          = 2000.0 // ops/s, half /v1/put, half /v1/get
	churnRate       = 1000.0 // ops/s on the stream conn during advances
	churnPerAdvance = 150    // stream ops beside each advance: 150 ms at churnRate, less than a build
	mintEvery       = 25     // every 25th churn-stream op is a /v1/mint of one ID
	mintCount       = 1

	shortSecs     = 10  // total length of a read or rw phase that is not the main window
	shortAdvances = 20  // advances of a churn phase that is not the main window
	advancesPerS  = 1.5 // advances per --second in the epoch-churn main window

	// The read capacity slice: capacityOps reads of the read mix per
	// round, closed loop on both conns, so the daemon is kept busy by two
	// callers that each wait for their reply and is never overloaded.
	capacityOps = 2000

	// Untimed closed-loop reads before every read and rw slice, so each
	// slice meets a daemon whose connections, caches and heap are warm,
	// also right after a restart.
	warmupOps = 300

	// An advance whose reply reports this search-fail rate or more built
	// an epoch that cannot serve (the known group collapse): it counts as a
	// failed op and leaves the advance latency sample.
	collapseFailRate = 0.5
)

// bench is the state of one benchmark run.
type bench struct {
	cfg  config
	conn [2]*conn // never more connections than the box has cores
	d    *daemon

	// committed is the epoch of the last advance whose reply came back;
	// started counts advances sent. Together they bracket the epoch any
	// concurrent reply was served from.
	committed, started atomic.Int64

	phases  map[string][]*op
	next    map[string]int // next op index of each phase's stream
	trail   []health       // every /healthz the churn slices read
	preload []byte         // value preloaded under probeKey

	sl       *stealLog
	setupS   []sample        // exec → first healthy reply of every boot, s
	recoverS []sample        // SIGKILL → first accepted get of every restart, s
	capacity []sample        // closed-loop read ops/s of every capacity slice
	steal    [rounds]float64 // steal share of CPU time over each round

	cpuTicks     int64 // daemon CPU over the main window
	mainCount    int
	putCalls     int64     // /metrics put batches over the rw slices ...
	putOps       int64     // ... and the puts they carried
	oplogAppends int64     // op-log appends of capturedSlice
	oplogBytes   int64     // op-log file size at its SIGKILL
	replayedOps  int64     // ops replayed by the restart after it
	rssMB        []float64 // VmHWM of each daemon process of the run
	killedDir    string    // copy of the data dir at that SIGKILL

	spans []span
}

// mainPhase names the phase whose ops are the workload's main window.
func (b *bench) mainPhase() string {
	switch b.cfg.workload {
	case "read-steady":
		return "read"
	}
	return "churn"
}

// shareOf splits total into n near-equal parts and returns part k.
func shareOf(total, k, n int) int { return (k+1)*total/n - k*total/n }

// phaseOps is how many ops phase's stream at rate sends over the run.
func (b *bench) phaseOps(phase string, rate float64) int {
	secs := math.Min(shortSecs, float64(b.cfg.seconds))
	if b.mainPhase() == phase {
		secs = float64(b.cfg.seconds)
	}
	return int(rate * secs)
}

func (b *bench) advances(r int) int {
	n := int(advancesPerS * float64(b.cfg.seconds))
	if b.mainPhase() != "churn" {
		n = min(shortAdvances, n)
	}
	return shareOf(n, r, rounds)
}

// phaseSeed derives an independent op-stream seed per phase.
func (b *bench) phaseSeed(phase string) int64 {
	h := uint64(b.cfg.seed)
	for _, c := range phase {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(h >> 1)
}

func keyName(k int) string { return fmt.Sprintf("k%08d", k) }

func (b *bench) conns() []*conn { return b.conn[:] }

func (b *bench) dataDir(name string) string { return filepath.Join(b.cfg.work, name) }

// run boots the daemon, preloads it and runs the rounds, logging the
// machine's steal throughout.
func (b *bench) run(ctx context.Context) error {
	b.sl = startStealLog()
	defer b.sl.close()
	b.phases, b.next = map[string][]*op{}, map[string]int{}
	dir := b.dataDir("daemon")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, s, err := b.boot(ctx, dir)
	if err != nil {
		return err
	}
	b.setupS = append(b.setupS, s)
	b.attach(d)
	if err := b.preloadKeys(ctx); err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		if err := b.round(ctx, r); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return b.notePeakRSS()
}

// round runs one slice of every phase. The churn slice comes last, so
// an epoch collapse inside it can only fail the ops that follow it in the
// same slice and in later rounds. The last round also reads every key
// back before its last SIGKILL and after that restart.
func (b *bench) round(ctx context.Context, r int) error {
	type step struct {
		name string
		fn   func() error
	}
	last := r == rounds-1
	steps := []step{
		{"setup", func() error { return b.setupSlice(ctx, r) }},
		{"warmup", func() error { return b.closedReads(ctx, "warmup", r, warmupOps) }},
		{"read", func() error { return b.readSlice(ctx, r) }},
		{"capacity", func() error {
			t0 := time.Now()
			err := b.closedReads(ctx, "capacity", r, capacityOps)
			t1 := time.Now()
			b.capacity = append(b.capacity, sample{capacityOps / t1.Sub(t0).Seconds(), t0, t1, r})
			return err
		}},
	}
	for k := 0; k < restartsPerRound; k++ {
		steps = append(steps, step{"warmup", func() error { return b.closedReads(ctx, "warmup", r, warmupOps) }},
			step{"rw", func() error { return b.rwSlice(ctx, r*restartsPerRound+k) }})
		if last && k == restartsPerRound-1 {
			steps = append(steps, step{"readback-before", func() error { return b.readback(ctx, "readback-before", r) }})
		}
		steps = append(steps, step{"recover", func() error { return b.recoverCycle(ctx, r, k) }})
	}
	if last {
		steps = append(steps, step{"readback-after", func() error { return b.readback(ctx, "readback-after", r) }})
	}
	steps = append(steps, step{"churn", func() error { return b.churnSlice(ctx, r) }})
	t0 := time.Now()
	defer func() { b.steal[r] = b.sl.share(t0, time.Now()) }()
	for _, s := range steps {
		t := time.Now()
		main := s.name == b.mainPhase()
		n0, c0, err := len(b.phases[s.name]), int64(0), error(nil)
		if main {
			if c0, err = b.d.cpuTicks(); err != nil {
				return err
			}
		}
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if main {
			c1, err := b.d.cpuTicks()
			if err != nil {
				return err
			}
			b.cpuTicks += c1 - c0
			b.mainCount += len(b.phases[s.name]) - n0
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d %s %.2fs\n", r, s.name, time.Since(t).Seconds())
	}
	return nil
}

// boot starts a daemon on dir and waits for its first healthy reply,
// returning the time from exec to that reply.
func (b *bench) boot(ctx context.Context, dir string) (*daemon, sample, error) {
	t0 := time.Now()
	d, err := startDaemon(b.cfg.daemonBin, dir, sysN, sysSeed)
	if err != nil {
		return nil, sample{}, err
	}
	c := newConn(d.base)
	defer c.close()
	if err := d.waitReady(ctx, c); err != nil {
		d.kill()
		return nil, sample{}, err
	}
	t1 := time.Now()
	return d, sample{t1.Sub(t0).Seconds(), t0, t1, 0}, nil
}

func (b *bench) attach(d *daemon) {
	b.d = d
	for i := range b.conn {
		if b.conn[i] != nil {
			b.conn[i].close()
		}
		b.conn[i] = newConn(d.base)
	}
}

// setupSlice times setupBootsPerRound throwaway boots, each on an empty
// data dir.
func (b *bench) setupSlice(ctx context.Context, r int) error {
	for i := 0; i < setupBootsPerRound; i++ {
		dir := b.dataDir(fmt.Sprintf("boot%d-%d", r, i))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		d, s, err := b.boot(ctx, dir)
		if err != nil {
			return err
		}
		d.kill()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s.round = r
		b.setupS = append(b.setupS, s)
	}
	return nil
}

// preloadKeys stores one value per key, and the probe key, through one
// /v1/put/batch, outside any timed window.
func (b *bench) preloadKeys(ctx context.Context) error {
	type kv struct {
		Key   string `json:"key"`
		Value []byte `json:"value"`
	}
	pairs := make([]kv, keys+1)
	for k := range pairs {
		v := make([]byte, 16)
		for j := 0; j < 16; j += 8 {
			x := splitmix64(uint64(b.cfg.seed)<<20 ^ uint64(k*2+j/8))
			for s := 0; s < 8; s++ {
				v[j+s] = byte(x >> (8 * s))
			}
		}
		pairs[k] = kv{Key: keyName(k), Value: v}
	}
	pairs[keys].Key = probeKey
	ops := make([]*op, 0, len(pairs))
	for lo := 0; lo < len(pairs); lo += preloadBatch {
		batch := pairs[lo:min(lo+preloadBatch, len(pairs))]
		var reply struct {
			Results []struct {
				Key      string `json:"key"`
				Code     string `json:"code"`
				Owner    string `json:"owner"`
				Hops     int    `json:"hops"`
				Messages int64  `json:"messages"`
			} `json:"results"`
		}
		t := time.Now()
		code, err := b.conn[0].call(ctx, http.MethodPost, "/v1/put/batch", map[string]any{"pairs": batch}, &reply)
		if err != nil {
			return err
		}
		if code != "ok" || len(reply.Results) != len(batch) {
			return fmt.Errorf("preload: /v1/put/batch answered %s with %d results", code, len(reply.Results))
		}
		done := time.Now()
		for i, r := range reply.Results {
			ops = append(ops, &op{kind: kPut, key: r.Key, value: batch[i].Value, due: t, sent: t, done: done,
				code: r.Code, owner: r.Owner, hops: r.Hops, messages: r.Messages})
		}
	}
	if !ops[keys].ok() {
		return fmt.Errorf("preload: the probe key answered %s", ops[keys].code)
	}
	b.preload = pairs[keys].Value
	b.phases["preload"] = ops
	return nil
}

// pre and post bracket every keyed or mint op with the epochs it may have
// been served from; post also checks each minted claim through /v1/verify.
func (b *bench) pre(_ context.Context, _ *conn, o *op) error {
	o.epochLo = int(b.committed.Load())
	return nil
}

func (b *bench) post(ctx context.Context, c *conn, o *op) error {
	o.epochHi = int(b.started.Load())
	if o.kind == kMint && o.ok() {
		return c.verifyMint(ctx, o)
	}
	return nil
}

// stream runs the next count ops of phase's open-loop stream on conns at
// rate, tags them with round r and records them. Op i is built by
// mk(seed, i); the slices of a run are one schedule with the gaps between
// slices cut out.
func (b *bench) stream(ctx context.Context, phase string, r int, conns []*conn, rate float64, count int,
	mk func(seed int64, i int) *op) error {
	seed := b.phaseSeed(phase)
	first := b.next[phase]
	ops, err := openLoop(ctx, conns, rate, first, count, seed, func(i int) *op { return mk(seed, i) }, b.pre, b.post)
	for _, o := range ops {
		o.round = r
	}
	b.next[phase] = first + len(ops)
	b.phases[phase] = append(b.phases[phase], ops...)
	return err
}

// Op content of the read streams comes from the loadgen generators'
// (seed, i) contract: even ops are lookups drawn by Uniform, odd ops gets
// drawn by ReadWriteMix with no writes.
var readLookups, readGets = loadgen.Uniform(keys), loadgen.ReadWriteMix(keys, 0)

func readMix(seed int64, i int) *op {
	if i%2 == 0 {
		return &op{kind: kLookup, key: readLookups.Op(seed, i).Key}
	}
	return &op{kind: kGet, key: readGets.Op(seed, i).Key}
}

// readSlice is the read-steady stream: open-loop lookups and gets at
// readRate on both conns, no writes, no advances.
func (b *bench) readSlice(ctx context.Context, r int) error {
	return b.stream(ctx, "read", r, b.conns(), readRate, shareOf(b.phaseOps("read", readRate), r, rounds), readMix)
}

var rwMix = loadgen.ReadWriteMix(keys, 0.5)

// rwSlice is slice k of the rw stream (restartsPerRound slices a round):
// open-loop puts and gets, half each, drawn by loadgen.ReadWriteMix at
// rwRate on both conns.
func (b *bench) rwSlice(ctx context.Context, k int) error {
	r := k / restartsPerRound
	mk := func(seed int64, i int) *op {
		g := rwMix.Op(seed, i)
		if g.Kind == loadgen.KindPut {
			return &op{kind: kPut, key: g.Key, value: g.Value}
		}
		return &op{kind: kGet, key: g.Key}
	}
	m0, err := b.conn[0].metrics(ctx)
	if err != nil {
		return err
	}
	if err := b.stream(ctx, "rw", r, b.conns(), rwRate, shareOf(b.phaseOps("rw", rwRate), k, rounds*restartsPerRound), mk); err != nil {
		return err
	}
	m1, err := b.conn[0].metrics(ctx)
	if err != nil {
		return err
	}
	b.putCalls += m1.Batch.PutCalls - m0.Batch.PutCalls
	b.putOps += m1.Batch.PutOps - m0.Batch.PutOps
	if k == capturedSlice {
		b.oplogAppends = m1.Durability.OplogAppends - m0.Durability.OplogAppends
	}
	return nil
}

// readback gets every key, closed loop, for the durability checks.
func (b *bench) readback(ctx context.Context, phase string, r int) error {
	ops := make([]*op, keys)
	for k := range ops {
		ops[k] = &op{kind: kGet, key: keyName(k), round: r,
			epochLo: int(b.committed.Load()), epochHi: int(b.started.Load())}
	}
	b.phases[phase] = ops
	return closedLoop(ctx, b.conns(), ops)
}

// notePeakRSS records the daemon's VmHWM; it runs before a kill,
// since a restarted process starts a new high-water mark.
func (b *bench) notePeakRSS() error {
	mb, err := b.d.peakRSSMB()
	b.rssMB = append(b.rssMB, mb)
	return err
}

// recoverCycle SIGKILLs the daemon and restarts it on the same data dir;
// the restart replays the puts of the rw slice before it (the previous
// restart folded everything older into a checkpoint). recover_s is
// SIGKILL → the first get after the restart whose reply the check can
// accept: the preloaded value, or unreachable. Cycle k = 0 of a
// round r > 0 kills the process that served the churn slice of round r−1;
// only such processes, and the one the run ends with, have their peak RSS
// noted, so daemon_rss_mb compares processes that did the same work. At
// the kill after capturedSlice the killed dir is also copied, untimed, for
// the traced run's restore and op-log measurements.
func (b *bench) recoverCycle(ctx context.Context, r, k int) error {
	if k == 0 && r > 0 {
		if err := b.notePeakRSS(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	b.d.kill()
	killS := time.Since(t0).Seconds()
	captured := r*restartsPerRound+k == capturedSlice
	if captured {
		b.killedDir = b.dataDir("killed")
		if err := copyDir(b.d.dir, b.killedDir); err != nil {
			return err
		}
		size, err := newestFileSize(b.killedDir, "oplog-*.tglog")
		if err != nil {
			return err
		}
		b.oplogBytes = size
	}
	t1 := time.Now()
	d, err := startDaemon(b.cfg.daemonBin, b.d.dir, sysN, sysSeed)
	if err != nil {
		return err
	}
	b.attach(d)
	for {
		o := &op{kind: kGet, key: probeKey, due: time.Now(), round: r,
			epochLo: int(b.committed.Load()), epochHi: int(b.started.Load())}
		if err := b.conn[0].do(ctx, o); err != nil {
			return err
		}
		// An unreachable answer is as final as the value: the daemon is
		// serving the restored epoch, and the check compares it with the
		// replica's answer there.
		if (o.ok() && string(o.value) == string(b.preload)) || o.code == "unreachable" {
			b.phases["recover"] = append(b.phases["recover"], o)
			break
		}
		if time.Since(t1) > 60*time.Second {
			return fmt.Errorf("no correct get within 60s of the restart (last %s): %s", o.code, d.lastLog())
		}
		time.Sleep(200 * time.Microsecond)
	}
	t2 := time.Now()
	b.recoverS = append(b.recoverS, sample{killS + t2.Sub(t1).Seconds(), t0, t2, r})
	m, err := b.conn[0].metrics(ctx)
	if err != nil {
		return err
	}
	if captured {
		b.replayedOps = m.Durability.ReplayedOps
	}
	return nil
}

// churnSlice is the epoch-churn mix: conn 0 is the operator, sending
// /v1/epoch/advance back to back for this round's share of the advances
// and reading /healthz before the first and after each; conn 1 carries an
// open-loop stream of lookups with every mintEvery-th op a /v1/mint, each
// mint's claim then checked through /v1/verify. The stream sends
// churnPerAdvance ops beside each advance, starting as the advance is
// sent, so the op count does not depend on how long the builds take; the
// next advance goes out once both are done.
func (b *bench) churnSlice(ctx context.Context, r int) error {
	h, err := b.conn[0].health(ctx)
	if err != nil {
		return err
	}
	b.trail = append(b.trail, h)
	lookups, mints := loadgen.Uniform(keys), loadgen.MintStorm(math.MaxInt)
	mk := func(seed int64, i int) *op {
		if i%mintEvery == mintEvery-1 {
			return &op{kind: kMint, key: mints.Op(seed, i).Key}
		}
		return &op{kind: kLookup, key: lookups.Op(seed, i).Key}
	}
	for k := 0; k < b.advances(r); k++ {
		var (
			adv    = &op{kind: kAdvance, due: time.Now(), round: r}
			advErr error
			wg     sync.WaitGroup
		)
		b.started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			advErr = b.conn[0].do(ctx, adv)
		}()
		err := b.stream(ctx, "churn", r, b.conn[1:], churnRate, churnPerAdvance, mk)
		wg.Wait()
		if advErr != nil {
			return advErr
		}
		b.phases["churn"] = append(b.phases["churn"], adv)
		if err != nil {
			return err
		}
		if !adv.ok() {
			return fmt.Errorf("advance answered %s", adv.code)
		}
		b.committed.Store(int64(adv.stats.Epoch))
		h, err := b.conn[0].health(ctx)
		if err != nil {
			return err
		}
		b.trail = append(b.trail, h)
	}
	return nil
}

// closedReads sends the next n reads of phase's read-mix stream closed
// loop on both conns and records them under phase.
func (b *bench) closedReads(ctx context.Context, phase string, r, n int) error {
	seed := b.phaseSeed(phase)
	first := b.next[phase]
	ops := make([]*op, n)
	for k := range ops {
		ops[k] = readMix(seed, first+k)
		ops[k].idx, ops[k].round = first+k, r
		ops[k].epochLo, ops[k].epochHi = int(b.committed.Load()), int(b.started.Load())
	}
	err := closedLoop(ctx, b.conns(), ops)
	b.next[phase] = first + n
	b.phases[phase] = append(b.phases[phase], ops...)
	return err
}

// collapsed reports whether an advance built an epoch that cannot serve.
func (o *op) collapsed() bool {
	return o.kind == kAdvance && o.stats != nil && o.stats.SearchFailRate >= collapseFailRate
}

// failed reports whether o counts as failed: refused, errored,
// unreachable, or an advance into a collapsed epoch.
func (o *op) failed() bool { return !o.ok() || o.collapsed() }
