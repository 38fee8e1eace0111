package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The machine the benchmark runs on is a virtual machine sharing its host.
// While the hypervisor runs other guests on our CPUs — the "steal" column
// of /proc/stat — every timing stretches, for reasons outside the code
// under test. Steal comes in bursts of a few hundred milliseconds, even
// when it takes a third of the CPU over a minute, so the benchmark samples
// it every stealEvery through the whole run and leaves out of its figures
// each timed sample whose interval the hypervisor stole from.

const (
	// stealEvery is how often the steal log reads /proc/stat. The kernel
	// counts in 10 ms ticks per CPU, so one 100 ms span of two CPUs
	// resolves steal to 5%.
	stealEvery = 100 * time.Millisecond

	// stealLimit is the steal share of all CPU time above which a sample's
	// interval counts as disturbed: one stolen tick in a 100 ms span is
	// already more.
	stealLimit = 0.04

	// minCalm and minCalmCount set how many of a metric's samples are
	// always used, a share of them but at least a count: when fewer
	// intervals stay under stealLimit, the least-stolen ones fill in.
	minCalm      = 0.1
	minCalmCount = 8
)

// cpuTimes returns the machine's cumulative steal and total CPU time from
// the first line of /proc/stat, in clock ticks; zeros if it is unreadable.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

type stealPoint struct {
	t            time.Time
	steal, total int64
}

// stealLog records the machine's cumulative steal every stealEvery from
// start to close.
type stealLog struct {
	mu   sync.Mutex
	pts  []stealPoint
	stop chan struct{}
	done chan struct{}
}

func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	l.add()
	go func() {
		defer close(l.done)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				l.add()
				return
			case <-tick.C:
				l.add()
			}
		}
	}()
	return l
}

func (l *stealLog) add() {
	s, t := cpuTimes()
	l.mu.Lock()
	l.pts = append(l.pts, stealPoint{time.Now(), s, t})
	l.mu.Unlock()
}

func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

// share is the steal share of CPU time over the logged span covering
// [t0, t1]: from the last point at or before t0 to the first at or after
// t1, at least one stealEvery wide.
func (l *stealLog) share(t0, t1 time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.pts)
	i := max(0, sort.Search(n, func(k int) bool { return l.pts[k].t.After(t0) })-1)
	j := min(n-1, max(i+1, sort.Search(n, func(k int) bool { return !l.pts[k].t.Before(t1) })))
	if j <= i || l.pts[j].total <= l.pts[i].total {
		return 0
	}
	return float64(l.pts[j].steal-l.pts[i].steal) / float64(l.pts[j].total-l.pts[i].total)
}

// sample is one timed measurement, the interval it covers and its round.
type sample struct {
	v      float64
	t0, t1 time.Time
	round  int
}

// opSamples turns the ops that succeeded into latency samples in ms,
// each covering its op from due time to reply.
func opSamples(ops []*op) []sample {
	var out []sample
	for _, o := range ops {
		if !o.failed() {
			out = append(out, sample{float64(o.latency()) / 1e6, o.due, o.done, o.round})
		}
	}
	return out
}

// calm returns, sorted, the values of the samples whose interval the
// hypervisor stole at most stealLimit of; when fewer are, the
// least-stolen minCalm share of all, and at least minCalmCount.
func (b *bench) calm(xs []sample) []float64 {
	type stolen struct{ v, share float64 }
	all := make([]stolen, len(xs))
	for i, x := range xs {
		all[i] = stolen{x.v, b.sl.share(x.t0, x.t1)}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].share < all[j].share })
	keep := max(minCalmCount, int(math.Ceil(minCalm*float64(len(all)))))
	var out []float64
	for i, s := range all {
		if i < keep || s.share <= stealLimit {
			out = append(out, s.v)
		}
	}
	sort.Float64s(out)
	return out
}
