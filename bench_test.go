package repro

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/epoch"
	"repro/internal/experiments"
	"repro/internal/groups"
	"repro/internal/hashes"
	"repro/internal/overlay"
	"repro/internal/pow"
	"repro/internal/ring"
	"repro/internal/secroute"
	"repro/internal/sim"
	"repro/tinygroups"
)

// ---------------------------------------------------------------------------
// One benchmark per experiment (DESIGN.md §6). Each regenerates its table in
// quick mode; per-experiment metrics of interest are also reported as
// custom benchmark metrics so `go test -bench` output doubles as the
// reproduction record.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) experiments.Result {
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = e.Run(experiments.Options{Quick: true, Seed: 1})
	}
	return res
}

func cell(b *testing.B, res experiments.Result, row, col int) float64 {
	v, err := strconv.ParseFloat(res.Table.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) not numeric: %v", row, col, err)
	}
	return v
}

func BenchmarkE1StaticSearch(b *testing.B) {
	res := benchExperiment(b, "e1")
	b.ReportMetric(cell(b, res, 0, 4), "searchFail@n1k,b05")
	b.ReportMetric(cell(b, res, len(res.Table.Rows)-1, 4), "searchFail@max,b10")
}

func BenchmarkE2BadGroups(b *testing.B) {
	res := benchExperiment(b, "e2")
	b.ReportMetric(cell(b, res, 1, 4), "badFrac@2lnln,b05")
}

func BenchmarkE3Costs(b *testing.B) {
	res := benchExperiment(b, "e3")
	// rows alternate tiny/log per overlay; ratio of msgs/search is the
	// Corollary 1 improvement factor.
	tiny := cell(b, res, 0, 5)
	logg := cell(b, res, 1, 5)
	b.ReportMetric(logg/tiny, "logVsTinyMsgRatio")
}

func BenchmarkE4Dynamic(b *testing.B) {
	res := benchExperiment(b, "e4")
	last := len(res.Table.Rows) - 1
	b.ReportMetric(cell(b, res, last, 5), "searchFail@lastEpoch")
}

func BenchmarkE5Ablation(b *testing.B) {
	res := benchExperiment(b, "e5")
	var lastTwo, lastOne float64
	for i, row := range res.Table.Rows {
		if row[0] == "2" {
			lastTwo = cell(b, res, i, 3)
		} else {
			lastOne = cell(b, res, i, 3)
		}
	}
	b.ReportMetric(lastTwo, "redFrac@2graphs")
	b.ReportMetric(lastOne, "redFrac@1graph")
}

func BenchmarkE6PoW(b *testing.B) {
	res := benchExperiment(b, "e6")
	b.ReportMetric(cell(b, res, 0, 2), "minted@b05")
}

func BenchmarkE7Strings(b *testing.B) {
	res := benchExperiment(b, "e7")
	b.ReportMetric(cell(b, res, 0, 4), "maxSolutionSet")
}

func BenchmarkE8Knee(b *testing.B) {
	res := benchExperiment(b, "e8")
	b.ReportMetric(cell(b, res, 0, 4), "searchFail@halfLnln")
	b.ReportMetric(cell(b, res, len(res.Table.Rows)-1, 4), "searchFail@4lnln")
}

func BenchmarkE9InputGraphs(b *testing.B) {
	res := benchExperiment(b, "e9")
	b.ReportMetric(cell(b, res, 0, 3), "chordHopsOverLog2n")
}

func BenchmarkE10Cuckoo(b *testing.B) {
	res := benchExperiment(b, "e10")
	b.ReportMetric(cell(b, res, 0, 4), "cuckooSurvived@g8")
}

func BenchmarkE11Precompute(b *testing.B) {
	res := benchExperiment(b, "e11")
	last := len(res.Table.Rows) - 1
	rot := cell(b, res, last, 1)
	no := cell(b, res, last, 2)
	b.ReportMetric(no/rot, "hoardGrowthRatio")
}

func BenchmarkE12State(b *testing.B) {
	res := benchExperiment(b, "e12")
	b.ReportMetric(cell(b, res, 0, 3), "spamAccepted@verify")
	b.ReportMetric(cell(b, res, 1, 3), "spamAccepted@noVerify")
}

func BenchmarkE13BA(b *testing.B) {
	res := benchExperiment(b, "e13")
	b.ReportMetric(cell(b, res, 0, 3), "agreementRate")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot substrates (testing.B in the conventional
// per-op style).
// ---------------------------------------------------------------------------

func benchRing(n int, seed int64) *ring.Ring {
	return overlay.UniformRing(n, rand.New(rand.NewSource(seed)))
}

func BenchmarkRingSuccessor(b *testing.B) {
	r := benchRing(1<<16, 1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Successor(ring.Point(rng.Uint64()))
	}
}

func BenchmarkHashPointAt(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.H1.PointAt(ring.Point(i), i&7)
	}
}

func BenchmarkHashPoint(b *testing.B) {
	data := []byte("0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.H1.Point(data)
	}
}

func BenchmarkHashOfPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.F.OfPoint(ring.Point(i))
	}
}

func BenchmarkHashPointsAt(b *testing.B) {
	dst := make([]ring.Point, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.H1.PointsAt(ring.Point(i), len(dst), dst)
	}
}

func BenchmarkXORInto(b *testing.B) {
	x := make([]byte, 32)
	y := make([]byte, 32)
	dst := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashes.XORInto(dst, x, y)
	}
}

// benchRingNode sends one allocation-free message to each ring neighbor per
// round, so BenchmarkSimRound isolates the runtime's own per-round overhead.
type benchRingNode struct {
	left, right sim.NodeID
	out         []sim.Message
}

func (n *benchRingNode) Step(round int, inbox []sim.Message) []sim.Message {
	n.out = n.out[:0]
	n.out = append(n.out,
		sim.Message{To: n.left, Payload: "m"},
		sim.Message{To: n.right, Payload: "m"})
	return n.out
}

// BenchmarkSimRound measures one steady-state synchronous round on a fixed
// 256-node ring topology (512 messages routed per round).
func BenchmarkSimRound(b *testing.B) {
	const n = 256
	nodes := make([]sim.Node, n)
	adj := make([][]sim.NodeID, n)
	for i := range nodes {
		l, r := sim.NodeID((i+n-1)%n), sim.NodeID((i+1)%n)
		nodes[i] = &benchRingNode{left: l, right: r}
		adj[i] = []sim.NodeID{l, r}
	}
	nw := sim.New(nodes)
	nw.SetTopology(adj)
	b.ReportAllocs()
	b.ResetTimer()
	nw.Run(b.N)
}

// BenchmarkGroupsBuild measures group-graph construction alone (overlay
// built once outside the loop), the hot path of every epoch.
func BenchmarkGroupsBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	params := groups.DefaultParams()
	params.Beta = 0.05
	ov := overlay.NewChord(pl.Ring())
	bad := pl.BadSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups.Build(ov, bad, params, hashes.H1)
	}
}

func BenchmarkChordRoute(b *testing.B) {
	r := benchRing(1<<14, 3)
	g := overlay.NewChord(r)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.At(rng.Intn(r.Len()))
		g.Route(src, ring.Point(rng.Uint64()))
	}
}

func BenchmarkDeBruijnRoute(b *testing.B) {
	r := benchRing(1<<14, 5)
	g := overlay.NewDeBruijn(r, 2)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.At(rng.Intn(r.Len()))
		g.Route(src, ring.Point(rng.Uint64()))
	}
}

func BenchmarkViceroyRoute(b *testing.B) {
	r := benchRing(1<<14, 7)
	g := overlay.NewViceroy(r, 7)
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.At(rng.Intn(r.Len()))
		g.Route(src, ring.Point(rng.Uint64()))
	}
}

func BenchmarkGroupGraphBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	params := groups.DefaultParams()
	params.Beta = 0.05
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov := overlay.NewChord(pl.Ring())
		groups.Build(ov, pl.BadSet(), params, hashes.H1)
	}
}

func BenchmarkGroupSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = 0.05
	g := groups.Build(ov, pl.BadSet(), params, hashes.H1)
	r := ov.Ring()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.At(rng.Intn(r.Len()))
		g.Search(src, ring.Point(rng.Uint64()))
	}
}

func BenchmarkPoWSolve(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 8), StringLen: 32}
	rng := rand.New(rand.NewSource(11))
	rstr := pow.EpochString(1, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pow.Solve(rstr, p, rng, 1<<20)
	}
}

func BenchmarkPoWSolveSharded(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 10), StringLen: 32}
	rstr := pow.EpochString(1, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pow.SolveSharded(rstr, p, int64(i+1), 1<<20, 0)
	}
}

// BenchmarkSolveSharded is the mining-engine trajectory benchmark: one
// explicit worker, so ns/op tracks the per-attempt hash cost rather than
// scheduling, with throughput surfaced as hashes/s.
func BenchmarkSolveSharded(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 10), StringLen: 32}
	rstr := pow.EpochString(1, 0, 32)
	attempts := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, ok := pow.SolveSharded(rstr, p, int64(i+1), 1<<20, 1)
		if !ok {
			b.Fatal("solve failed")
		}
		attempts += int64(sol.Attempts)
	}
	b.ReportMetric(float64(attempts)/b.Elapsed().Seconds(), "hashes/s")
}

func BenchmarkPoWVerifyBatch(b *testing.B) {
	p := pow.Params{Tau: ring.Point(^uint64(0) >> 4), StringLen: 32}
	rstr := pow.EpochString(1, 0, 32)
	claims := make([]pow.Claim, 256)
	for i := range claims {
		sol, ok := pow.SolveSharded(rstr, p, int64(i+1), 1<<16, 0)
		if !ok {
			b.Fatal("setup solve failed")
		}
		claims[i] = pow.Claim{ID: sol.ID, Sigma: sol.Sigma}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pow.VerifyBatch(claims, rstr, p, 0)
	}
}

func BenchmarkEngineMapOverhead(b *testing.B) {
	cfg := engine.Config{RootSeed: 1}
	for i := 0; i < b.N; i++ {
		engine.Map(cfg, "bench", 64, func(_ int, rng *rand.Rand) float64 {
			return rng.Float64()
		})
	}
}

func BenchmarkMintCount(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < b.N; i++ {
		pow.MintCount(1<<20, 1e-4, rng)
	}
}

func BenchmarkPhaseKingAgreement(b *testing.B) {
	prefs := make([]int, 12)
	for i := range prefs {
		prefs[i] = i % 2
	}
	byz := map[int]bool{3: true, 8: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba.Run(12, 2, prefs, byz, "equivocate")
	}
}

func BenchmarkCuckooEvent(b *testing.B) {
	// Parameters that survive the attack (per E10), so all b.N events run.
	res := baseline.RunCuckoo(baseline.CuckooConfig{
		N: 1 << 10, Beta: 0.002, K: 4, GroupSize: 64,
		Events: b.N, Targeted: true, Seed: 13,
	})
	if !res.Survived && b.N > 1000 {
		b.Fatalf("cuckoo died at event %d; per-event timing invalid", res.SurvivedEvents)
	}
}

func BenchmarkE14SecureRouting(b *testing.B) {
	res := benchExperiment(b, "e14")
	b.ReportMetric(cell(b, res, 0, 3), "scoreAgreement")
}

func BenchmarkE15Departures(b *testing.B) {
	res := benchExperiment(b, "e15")
	b.ReportMetric(cell(b, res, 0, 3), "majLost@10pct")
	b.ReportMetric(cell(b, res, len(res.Table.Rows)-1, 3), "majLost@80pct")
}

func BenchmarkE16Bootstrap(b *testing.B) {
	res := benchExperiment(b, "e16")
	b.ReportMetric(cell(b, res, 1, 4), "goodMajorityRate")
}

func BenchmarkE17OverlayAblation(b *testing.B) {
	res := benchExperiment(b, "e17")
	b.ReportMetric(cell(b, res, 0, 1), "chordHops")
	b.ReportMetric(cell(b, res, 1, 1), "debruijn2Hops")
}

func BenchmarkSecureRouteProtocol(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	pl := adversary.Place(adversary.Config{N: 1 << 12, Beta: 0.05, Strategy: adversary.Uniform}, rng)
	ov := overlay.NewChord(pl.Ring())
	params := groups.DefaultParams()
	params.Beta = 0.05
	g := groups.Build(ov, pl.BadSet(), params, hashes.H1)
	r := ov.Ring()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.At(rng.Intn(r.Len()))
		secroute.Route(g, src, ring.Point(rng.Uint64()))
	}
}

func BenchmarkEpochConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := epoch.DefaultConfig(512)
		cfg.Seed = int64(i + 1)
		s, err := epoch.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.RunEpoch()
		s.Close()
	}
}

// BenchmarkRunEpoch measures one steady-state epoch (n = 1024, defaults)
// at a single worker — the sequential-pipeline number. The pre-pipeline
// sequential implementation measured 83.6 ms/op and 1,036,614 allocs/op on
// the same workload.
func BenchmarkRunEpoch(b *testing.B) {
	cfg := epoch.DefaultConfig(1024)
	cfg.Seed = 1
	cfg.Workers = 1
	s, err := epoch.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

// BenchmarkRunEpochParallel is BenchmarkRunEpoch on the default worker
// pool (GOMAXPROCS) — results are byte-identical to the 1-worker run; only
// wall-clock moves.
func BenchmarkRunEpochParallel(b *testing.B) {
	cfg := epoch.DefaultConfig(1024)
	cfg.Seed = 1
	s, err := epoch.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

// BenchmarkEpochSweep measures the E4-shaped workload end to end: trusted
// initialization plus a three-epoch dynamic chain at n = 512, including
// graph construction and generation swaps.
func BenchmarkEpochSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := epoch.DefaultConfig(512)
		cfg.Seed = int64(i + 1)
		s, err := epoch.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			s.RunEpoch()
		}
		s.Close()
	}
}

func BenchmarkLotteryRound(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	r := overlay.UniformRing(256, rng)
	ov := overlay.NewChord(r)
	adj := pow.BuildAdjacency(ov)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := pow.DefaultLotteryConfig(256, 1<<14)
		cfg.Seed = int64(i + 1)
		pow.RunLottery(cfg, adj)
	}
}

func BenchmarkE18Quarantine(b *testing.B) {
	res := benchExperiment(b, "e18")
	b.ReportMetric(cell(b, res, 2, 3), "residentBad@pMis1")
	b.ReportMetric(cell(b, res, 0, 3), "residentBad@stealth")
}

func BenchmarkE19AdaptivePoW(b *testing.B) {
	res := benchExperiment(b, "e19")
	b.ReportMetric(cell(b, res, 0, 1), "workRatio@peace")
	b.ReportMetric(cell(b, res, 3, 1), "workRatio@griefing")
}

func BenchmarkE20SizeDrift(b *testing.B) {
	res := benchExperiment(b, "e20")
	b.ReportMetric(cell(b, res, len(res.Table.Rows)-1, 4), "searchFail@50pctDrift")
}

// BenchmarkLookupParallel measures the lock-free snapshot read path under
// contention: every P runs Lookups concurrently against one System, each
// drawing a pooled scratch and resolving against the atomically-loaded
// epoch generation. Scaling with -cpu is the tentpole claim — reads share
// no locks, so throughput should track GOMAXPROCS.
func BenchmarkLookupParallel(b *testing.B) {
	sys, err := tinygroups.New(4096, tinygroups.WithBeta(0.05), tinygroups.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "par-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_, _ = sys.Lookup(ctx, keys[i%len(keys)])
			i++
		}
	})
}
