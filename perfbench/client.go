package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// kind is the endpoint one benchmark op drives.
type kind uint8

const (
	kLookup kind = iota
	kGet
	kPut
	kMint
	kAdvance
)

var kindNames = [...]string{"lookup", "get", "put", "mint", "advance"}

func (k kind) String() string { return kindNames[k] }

// op is one request the benchmark sends and everything it observed about
// the reply. due is the time the schedule meant to send it, sent and done
// bracket the HTTP exchange; latency is always done − due.
type op struct {
	idx   int // position in its stream
	round int // round of the run that sent it
	kind  kind
	key   string // lookup/get/put key, mint miner
	value []byte // put: value sent; get: value received

	due, sent, done time.Time

	code     string // "ok" or the daemon's error code; "transport" when no reply
	owner    string
	hops     int
	messages int64

	// Epoch bracket the reply must have been served from: at least the
	// epoch committed before the op was sent, at most the epochs whose
	// advance began before the reply arrived. Set for keyed ops and mints.
	epochLo, epochHi int

	mint        *mintReply
	verify      string // mint: code of the follow-up /v1/verify ("ok" when the claim passed)
	verifyEpoch int    // mint: epoch the daemon verified the claim at
	stats       *advanceStats
}

func (o *op) ok() bool { return o.code == "ok" }

// latency is the op's latency measured from its intended send time.
func (o *op) latency() time.Duration { return o.done.Sub(o.due) }

// advanceStats mirrors the tinygroups.Stats fields of an advance reply the
// benchmark records and checks.
type advanceStats struct {
	Epoch          int
	RedFraction    [2]float64
	SearchFailRate float64
	Searches       int64
}

type mintReply struct {
	Epoch   int `json:"epoch"`
	Results []struct {
		ID       string `json:"id"`
		Sigma    []byte `json:"sigma"`
		Attempts int    `json:"attempts"`
	} `json:"results"`
}

type keyedReply struct {
	Owner    string `json:"owner"`
	Hops     int    `json:"hops"`
	Messages int64  `json:"messages"`
	Value    []byte `json:"value"`
}

type health struct {
	Epoch       int    `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
}

// conn is one keep-alive HTTP connection to the daemon. The benchmark's
// load process never opens more than nproc of them.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 200 reply into out. It returns the
// daemon's error code for a non-200 reply and "transport" when none came.
func (c *conn) call(ctx context.Context, method, path string, body, out any) (string, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return "", err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "transport", nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "transport", nil
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Code string `json:"code"`
		}
		if json.Unmarshal(data, &e) != nil || e.Code == "" {
			return fmt.Sprintf("http_%d", resp.StatusCode), nil
		}
		return e.Code, nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return "", fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return "ok", nil
}

// do executes o on c, filling in its timestamps and reply fields.
func (c *conn) do(ctx context.Context, o *op) error {
	var (
		code string
		err  error
	)
	o.sent = time.Now()
	switch o.kind {
	case kLookup, kPut, kGet:
		var r keyedReply
		switch o.kind {
		case kLookup:
			code, err = c.call(ctx, http.MethodPost, "/v1/lookup", map[string]string{"key": o.key}, &r)
		case kPut:
			code, err = c.call(ctx, http.MethodPost, "/v1/put", map[string]any{"key": o.key, "value": o.value}, &r)
		default:
			code, err = c.call(ctx, http.MethodGet, "/v1/get?key="+url.QueryEscape(o.key), nil, &r)
			o.value = r.Value
		}
		o.owner, o.hops, o.messages = r.Owner, r.Hops, r.Messages
	case kMint:
		var r mintReply
		code, err = c.call(ctx, http.MethodPost, "/v1/mint", map[string]any{"miner": o.key, "count": mintCount}, &r)
		if code == "ok" {
			o.mint = &r
		}
	case kAdvance:
		var st advanceStats
		code, err = c.call(ctx, http.MethodPost, "/v1/epoch/advance", nil, &st)
		if code == "ok" {
			o.stats = &st
		}
	}
	o.done = time.Now()
	o.code = code
	return err
}

// verifyMint sends the claim of a minted op to /v1/verify and records the
// outcome and the epoch it was verified at on o. The verify is not part
// of any latency sample.
func (c *conn) verifyMint(ctx context.Context, o *op) error {
	var r struct {
		Epoch    int    `json:"epoch"`
		Verdicts []bool `json:"verdicts"`
	}
	claims := make([]map[string]any, len(o.mint.Results))
	for i, res := range o.mint.Results {
		claims[i] = map[string]any{"id": res.ID, "sigma": res.Sigma}
	}
	body := map[string]any{"claims": claims}
	code, err := c.call(ctx, http.MethodPost, "/v1/verify", body, &r)
	if err != nil {
		return err
	}
	o.verifyEpoch = r.Epoch
	o.verify = code
	if code == "ok" && (len(r.Verdicts) != len(claims) || slices.Contains(r.Verdicts, false)) {
		o.verify = "rejected"
	}
	return nil
}

func (c *conn) health(ctx context.Context) (health, error) {
	var h health
	code, err := c.call(ctx, http.MethodGet, "/healthz", nil, &h)
	if err == nil && code != "ok" {
		err = fmt.Errorf("healthz: %s", code)
	}
	return h, err
}

// metricsDoc is the subset of the daemon's /metrics document the
// benchmark reads.
type metricsDoc struct {
	Batch struct {
		PutCalls int64 `json:"put_calls"`
		PutOps   int64 `json:"put_ops"`
	} `json:"batch"`
	Durability struct {
		OplogAppends int64 `json:"oplog_appends"`
		ReplayedOps  int64 `json:"replayed_ops"`
	} `json:"durability"`
}

func (c *conn) metrics(ctx context.Context) (metricsDoc, error) {
	var m metricsDoc
	code, err := c.call(ctx, http.MethodGet, "/metrics", nil, &m)
	if err == nil && code != "ok" {
		err = fmt.Errorf("metrics: %s", code)
	}
	return m, err
}

// splitmix64 is the benchmark's own stateless mixer: schedule jitter must
// be a pure function of (seed, i), independent of any program state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dueOffset is when op i of an open-loop stream at rate ops/s is due,
// relative to the stream's start: slot i of width 1/rate, at a point in
// the slot drawn from (seed, i). A pure function of (seed, i, rate).
func dueOffset(seed int64, i int, rate float64) time.Duration {
	u := float64(splitmix64(uint64(seed)*0x100000001b3^uint64(i))>>11) / (1 << 53)
	return time.Duration((float64(i) + u) / rate * float64(time.Second))
}

// sleepUntil blocks the calling goroutine until t. time.Sleep cannot pace
// an open loop here: the runtime rounds short sleeps up to about a
// millisecond, which would show up as lateness in every op. A nanosleep on
// a thread whose timer slack is 1µs wakes within tens of microseconds.
// The blocked thread holds no P for long: main raises GOMAXPROCS so the
// other senders and the HTTP transport keep running meanwhile.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) // best effort
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// prSetTimerslack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerslack = 29

// openLoop sends ops first..first+count-1 of a stream on the conns on a
// fixed schedule at rate ops/s: op i is due dueOffset(seed, i, rate) −
// first/rate after the call starts, whether or not earlier replies have
// come back. An idle conn takes the
// next op and waits for its due time; when every conn is busy the op goes
// out late, and its latency still counts from the due time. mk builds op
// i; pre and post run on the sending conn just before the send and once
// the reply is in (outside the op's latency). The ops come back in index
// order.
func openLoop(ctx context.Context, conns []*conn, rate float64, first, count int, seed int64,
	mk func(i int) *op, pre, post func(context.Context, *conn, *op) error) ([]*op, error) {
	start := time.Now().Add(5 * time.Millisecond).Add(-time.Duration(float64(first) / rate * float64(time.Second)))
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		all     []*op
		firstEr error
	)
	next.Store(int64(first))
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*op
			err := func() error {
				for {
					i := int(next.Add(1)) - 1
					if i >= first+count {
						return nil
					}
					o := mk(i)
					o.idx = i
					o.due = start.Add(dueOffset(seed, i, rate))
					mine = append(mine, o)
					sleepUntil(o.due)
					if err := pre(ctx, c, o); err != nil {
						return err
					}
					if err := c.do(ctx, o); err != nil {
						return err
					}
					if err := post(ctx, c, o); err != nil {
						return err
					}
				}
			}()
			mu.Lock()
			defer mu.Unlock()
			all = append(all, mine...)
			if err != nil && firstEr == nil {
				firstEr = err
			}
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, firstEr
}

// closedLoop runs ops back to back on the conns, each op due the moment a
// conn is free to send it.
func closedLoop(ctx context.Context, conns []*conn, ops []*op) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				ops[i].due = time.Now()
				if err := c.do(ctx, ops[i]); err != nil {
					errOnce.Do(func() { firstEr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}
