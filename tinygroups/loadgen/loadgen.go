// Package loadgen generates deterministic, reproducible workloads against
// a tinygroups deployment and drives them closed-loop while recording
// latency quantiles — the traffic half of the tinygroupsd serving layer.
//
// Workloads are pure functions of (seed, op index): every operation's
// kind, key and value derive from engine.TrialSeed(seed, workload, i), the
// same hash-derived substream convention the experiment engine and the
// epoch pipeline use. The op stream is therefore identical regardless of
// client concurrency or scheduling — two load runs with the same seed send
// exactly the same operations, no matter how the closed-loop workers
// interleave — which is what makes service-level results comparable across
// runs and machines.
//
//	gen := loadgen.Uniform(1024)
//	res, err := loadgen.Run(ctx, loadgen.NewHTTPTarget(addr), gen, loadgen.Config{
//		Concurrency: 8, Ops: 10000, Seed: 1,
//	})
//	fmt.Println(res.Throughput, res.P50Millis, res.P99Millis)
//
// The built-in generators cover six canonical traffic shapes: uniform
// reads, Zipf-like hotspot reads, a read/write mix, churn-heavy traffic
// that interleaves epoch turnovers with lookups, epoch-storm — reads
// sustained while epoch advances fire near-continuously, the probe for
// the lock-free snapshot read path — and mint-storm, sustained PoW
// identity minting across epoch rotations, the probe for the mint path.
// Suite returns all six for the standard sweep.
package loadgen

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// Kind is the operation class of one generated Op.
type Kind uint8

// The operation classes a workload can emit, mapping 1:1 onto the daemon's
// endpoints (lookup, put, get, epoch advance).
const (
	KindLookup Kind = iota
	KindPut
	KindGet
	KindAdvance
	KindMint
	KindBulkLookup
)

// String returns the op-kind name.
func (k Kind) String() string {
	switch k {
	case KindLookup:
		return "lookup"
	case KindPut:
		return "put"
	case KindGet:
		return "get"
	case KindAdvance:
		return "advance"
	case KindMint:
		return "mint"
	case KindBulkLookup:
		return "bulk-lookup"
	}
	return "unknown"
}

// Op is one generated operation. Advance ops carry no key; put ops carry a
// generated value; bulk-lookup ops carry Keys instead of Key.
type Op struct {
	Kind  Kind
	Key   string
	Value []byte
	// Keys is the key set of a KindBulkLookup op — one amortized
	// /v1/lookup/batch call (scatter-gathered across shards by a cluster
	// router).
	Keys []string
}

// Generator deterministically produces the i-th operation of a workload.
// Implementations must derive all randomness from (seed, i) — never from
// shared mutable state — so the op stream is independent of which client
// executes which index.
type Generator interface {
	// Name identifies the workload in reports and flag values.
	Name() string
	// Op returns operation i of the stream identified by seed. It must be
	// safe for concurrent use.
	Op(seed int64, i int) Op
}

// valueBytes is the size of generated put values.
const valueBytes = 16

// keyOf formats key index k of a keyspace; zero-padding keeps keys
// fixed-width so value sizes do not vary with the draw.
func keyOf(k int) string { return fmt.Sprintf("k%08d", k) }

// stream derives the private randomness stream of op i of the named
// workload — one TrialSeed hash, exactly the engine's per-trial contract.
func stream(scope string, seed int64, i int) engine.Stream {
	return engine.NewStream(engine.TrialSeed(seed, scope, i))
}

// clampKeys floors a keyspace size at 1 so a zero or negative size
// degenerates to a single hot key instead of panicking inside the
// closed-loop workers (Stream.Intn rejects non-positive bounds).
func clampKeys(keys int) int {
	if keys < 1 {
		return 1
	}
	return keys
}

// genValue fills a fresh value from the op's private stream.
func genValue(rng *engine.Stream) []byte {
	v := make([]byte, valueBytes)
	for i := range v {
		v[i] = byte(rng.Uint64())
	}
	return v
}

// uniform is the Uniform generator.
type uniform struct {
	keys  int
	scope string
}

// Uniform returns a workload of lookups with keys drawn uniformly from a
// keyspace of the given size — the unskewed read baseline.
func Uniform(keys int) Generator {
	return &uniform{keys: clampKeys(keys), scope: "loadgen/uniform"}
}

// Name implements Generator.
func (g *uniform) Name() string { return "uniform" }

// Op implements Generator.
func (g *uniform) Op(seed int64, i int) Op {
	rng := stream(g.scope, seed, i)
	return Op{Kind: KindLookup, Key: keyOf(rng.Intn(g.keys))}
}

// zipf is the ZipfHotspot generator.
type zipf struct {
	keys  int
	skew  float64
	scope string
}

// ZipfHotspot returns a workload of lookups with power-law key popularity:
// key index ⌊K·u^skew⌋ for uniform u, which concentrates mass on the
// low-index keys the way a Zipf tail does (skew 1 degenerates to uniform;
// the default suite uses skew 4, putting ≈32% of traffic on the hottest 1%
// of keys and ≈56% on the hottest 10%). The inverse-CDF form keeps the
// draw a single uniform variate per op, preserving the pure-(seed,i)
// determinism contract.
func ZipfHotspot(keys int, skew float64) Generator {
	if skew < 1 {
		skew = 1
	}
	return &zipf{keys: clampKeys(keys), skew: skew, scope: "loadgen/zipf"}
}

// Name implements Generator.
func (g *zipf) Name() string { return "zipf-hotspot" }

// Op implements Generator.
func (g *zipf) Op(seed int64, i int) Op {
	rng := stream(g.scope, seed, i)
	idx := int(float64(g.keys) * math.Pow(rng.Float64(), g.skew))
	if idx >= g.keys {
		idx = g.keys - 1
	}
	return Op{Kind: KindLookup, Key: keyOf(idx)}
}

// readwrite is the ReadWriteMix generator.
type readwrite struct {
	keys      int
	writeFrac float64
	scope     string
}

// ReadWriteMix returns a workload mixing puts (with generated values) and
// gets over a uniform keyspace; writeFrac ∈ [0,1] is the put share
// (default suite: 0.1). Gets of keys never written surface as the
// not_found outcome — the driver counts them separately from errors.
func ReadWriteMix(keys int, writeFrac float64) Generator {
	return &readwrite{keys: clampKeys(keys), writeFrac: writeFrac, scope: "loadgen/readwrite"}
}

// Name implements Generator.
func (g *readwrite) Name() string { return "readwrite-mix" }

// Op implements Generator.
func (g *readwrite) Op(seed int64, i int) Op {
	rng := stream(g.scope, seed, i)
	key := keyOf(rng.Intn(g.keys))
	if rng.Float64() < g.writeFrac {
		return Op{Kind: KindPut, Key: key, Value: genValue(&rng)}
	}
	return Op{Kind: KindGet, Key: key}
}

// churn is the ChurnHeavy generator.
type churn struct {
	keys         int
	advanceEvery int
	scope        string
}

// ChurnHeavy returns a workload of uniform lookups with one epoch advance
// every advanceEvery ops — sustained traffic over a population that keeps
// turning over, the serving-layer analogue of the dynamic experiments.
// The advance positions are fixed by index (i ≡ advanceEvery−1 mod
// advanceEvery), so the turnover schedule is part of the deterministic
// stream.
func ChurnHeavy(keys, advanceEvery int) Generator {
	if advanceEvery <= 0 {
		advanceEvery = 500
	}
	return &churn{keys: clampKeys(keys), advanceEvery: advanceEvery, scope: "loadgen/churn"}
}

// Name implements Generator.
func (g *churn) Name() string { return "churn-heavy" }

// Op implements Generator.
func (g *churn) Op(seed int64, i int) Op {
	if i%g.advanceEvery == g.advanceEvery-1 {
		return Op{Kind: KindAdvance}
	}
	rng := stream(g.scope, seed, i)
	return Op{Kind: KindLookup, Key: keyOf(rng.Intn(g.keys))}
}

// storm is the EpochStorm generator.
type storm struct {
	keys         int
	advanceEvery int
	scope        string
}

// EpochStorm returns a workload of sustained uniform lookups with epoch
// advances fired far more often than churn-heavy — one per advanceEvery
// ops, default 100 — so that under a concurrent closed-loop driver the
// reads overlap live epoch constructions almost continuously. It is the
// serving-layer probe for the lock-free read path: with reads resolving
// against the atomically-swapped epoch snapshot, read p99 should stay
// within ~2x of the steady-state workloads instead of stalling behind
// each construction. The advance positions are fixed by index, so the
// storm schedule is part of the deterministic stream.
func EpochStorm(keys, advanceEvery int) Generator {
	if advanceEvery <= 0 {
		advanceEvery = 100
	}
	return &storm{keys: clampKeys(keys), advanceEvery: advanceEvery, scope: "loadgen/epochstorm"}
}

// Name implements Generator.
func (g *storm) Name() string { return "epoch-storm" }

// Op implements Generator.
func (g *storm) Op(seed int64, i int) Op {
	if i%g.advanceEvery == g.advanceEvery-1 {
		return Op{Kind: KindAdvance}
	}
	rng := stream(g.scope, seed, i)
	return Op{Kind: KindLookup, Key: keyOf(rng.Intn(g.keys))}
}

// mintstorm is the MintStorm generator.
type mintstorm struct {
	advanceEvery int
	scope        string
}

// MintStorm returns a workload of sustained identity minting — every op
// solves a full PoW puzzle for a fresh miner identity — punctuated by one
// epoch advance per advanceEvery ops (default 500) so the mints keep
// crossing string rotations. It is the probe for the mint serving path:
// mints run outside the write queue, so the advances should not stall
// behind the solves or vice versa. The miner name of op i derives from
// (seed, i), keeping the stream a pure function of its coordinates.
func MintStorm(advanceEvery int) Generator {
	if advanceEvery <= 0 {
		advanceEvery = 500
	}
	return &mintstorm{advanceEvery: advanceEvery, scope: "loadgen/mintstorm"}
}

// Name implements Generator.
func (g *mintstorm) Name() string { return "mint-storm" }

// Op implements Generator. The miner identity rides in Key.
func (g *mintstorm) Op(seed int64, i int) Op {
	if i%g.advanceEvery == g.advanceEvery-1 {
		return Op{Kind: KindAdvance}
	}
	rng := stream(g.scope, seed, i)
	return Op{Kind: KindMint, Key: fmt.Sprintf("m%016x", rng.Uint64())}
}

// bulkread is the BulkRead generator.
type bulkread struct {
	keys  int
	batch int
	scope string
}

// BulkRead returns a workload of batched lookups: every op carries batch
// uniformly-drawn keys and resolves as one /v1/lookup/batch call. It is
// the probe for the amortized read path — and, through a cluster router,
// for the scatter-gather plane, since a batch of uniform keys splits
// across every shard. All keys of op i derive from the op's one private
// stream, keeping the pure-(seed,i) determinism contract.
func BulkRead(keys, batch int) Generator {
	if batch < 1 {
		batch = 16
	}
	return &bulkread{keys: clampKeys(keys), batch: batch, scope: "loadgen/bulkread"}
}

// Name implements Generator.
func (g *bulkread) Name() string { return "bulk-read" }

// Op implements Generator.
func (g *bulkread) Op(seed int64, i int) Op {
	rng := stream(g.scope, seed, i)
	ks := make([]string, g.batch)
	for j := range ks {
		ks[j] = keyOf(rng.Intn(g.keys))
	}
	return Op{Kind: KindBulkLookup, Keys: ks}
}

// Suite returns the standard 6-workload sweep — uniform, zipf-hotspot
// (skew 4), readwrite-mix (10% writes), churn-heavy (one advance per
// advanceEvery ops), epoch-storm (one advance per advanceEvery/5 ops,
// floored at 1) and mint-storm (one advance per advanceEvery ops) — over
// a keyspace of the given size. This is the sweep cmd/loadgen runs by
// default.
func Suite(keys, advanceEvery int) []Generator {
	return []Generator{
		Uniform(keys),
		ZipfHotspot(keys, 4),
		ReadWriteMix(keys, 0.1),
		ChurnHeavy(keys, advanceEvery),
		EpochStorm(keys, max(advanceEvery/5, 1)),
		MintStorm(advanceEvery),
	}
}
