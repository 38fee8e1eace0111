package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/tinygroups"
)

// The output checks. They run after the daemon is gone, never inside a
// timed window, against an in-process replica tinygroups.New(sysN,
// WithSeed(sysSeed)) stepped through the same epochs. Any mismatch fails
// the run.

type replicaAnswer struct {
	owner       string
	hops        int
	messages    int64
	unreachable bool
}

func pointHex(p tinygroups.Point) string { return "0x" + strconv.FormatUint(uint64(p), 16) }

// check verifies every recorded reply.
func (b *bench) check(ctx context.Context) error {
	rep, err := tinygroups.New(sysN, tinygroups.WithSeed(sysSeed))
	if err != nil {
		return err
	}
	defer rep.Close()
	if err := b.checkRouting(ctx, rep); err != nil {
		return err
	}
	return b.checkValues()
}

// checkRouting walks the replica through every epoch the run reached.
// Each keyed reply must match the replica's answer (owner, hops, messages,
// or unreachable) at some epoch of its bracket; each advance reply and the
// /healthz fingerprint after it must match the replica's; each minted
// claim must have passed /v1/verify at its own epoch.
func (b *bench) checkRouting(ctx context.Context, rep *tinygroups.System) error {
	var pending []*op
	for _, ops := range b.phases {
		for _, o := range ops {
			if o.kind != kAdvance {
				pending = append(pending, o)
			}
		}
	}
	last := 0
	for _, o := range pending {
		last = max(last, o.epochHi)
	}
	var advances []*op
	for _, o := range b.phases["churn"] {
		if o.kind == kAdvance {
			advances = append(advances, o)
		}
	}
	last = max(last, len(advances))
	for e := 0; e <= last; e++ {
		if e > 0 {
			st, err := rep.AdvanceEpoch(ctx)
			if err != nil {
				return err
			}
			if e <= len(advances) {
				got := advances[e-1].stats
				if got.Epoch != st.Epoch || got.RedFraction != st.RedFraction || got.SearchFailRate != st.SearchFailRate {
					return fmt.Errorf("check: advance %d reply %+v differs from the replica's epoch %d stats", e, *got, st.Epoch)
				}
			}
		}
		for _, h := range b.trail {
			if h.Epoch == e && h.Fingerprint != rep.Fingerprint() {
				return fmt.Errorf("check: /healthz fingerprint at epoch %d differs from the replica's", e)
			}
		}
		answers := map[string]replicaAnswer{}
		rest := pending[:0]
		for _, o := range pending {
			if e < o.epochLo || e > o.epochHi {
				rest = append(rest, o)
				continue
			}
			ok, err := matches(ctx, rep, answers, o, e)
			if err != nil {
				return err
			}
			if !ok {
				rest = append(rest, o)
			}
		}
		pending = rest
	}
	if len(pending) > 0 {
		o := pending[0]
		return fmt.Errorf("check: %d replies match the replica at no epoch of their bracket; first: %s %q answered %s owner %s (epochs %d..%d)",
			len(pending), o.kind, o.key, o.code, o.owner, o.epochLo, o.epochHi)
	}
	return nil
}

// matches reports whether o's reply is the replica's answer at epoch e.
func matches(ctx context.Context, rep *tinygroups.System, answers map[string]replicaAnswer, o *op, e int) (bool, error) {
	if o.kind == kMint {
		if !o.ok() {
			return refused(o.code), nil
		}
		if o.mint.Epoch != e {
			return false, nil
		}
		if o.verifyEpoch == e {
			return o.verify == "ok", nil
		}
		// An advance flipped between the mint and its verify: the claims
		// are checked at their own epoch on the replica instead.
		claims := make([]tinygroups.MintClaim, len(o.mint.Results))
		for i, res := range o.mint.Results {
			id, err := strconv.ParseUint(strings.TrimPrefix(res.ID, "0x"), 16, 64)
			if err != nil {
				return false, err
			}
			claims[i] = tinygroups.MintClaim{ID: tinygroups.Point(id), Sigma: res.Sigma}
		}
		v, err := rep.VerifyMints(ctx, claims)
		return err == nil && len(v) == mintCount && !slices.Contains(v, false), err
	}
	a, ok := answers[o.key]
	if !ok {
		info, err := rep.Lookup(ctx, o.key)
		switch {
		case errors.Is(err, tinygroups.ErrUnreachable):
			a = replicaAnswer{unreachable: true}
		case err != nil:
			return false, err
		default:
			a = replicaAnswer{owner: pointHex(info.Owner), hops: info.Hops, messages: info.Messages}
		}
		answers[o.key] = a
	}
	if refused(o.code) {
		return true, nil
	}
	if a.unreachable {
		return o.code == "unreachable", nil
	}
	if o.code == "not_found" && o.kind == kGet {
		return true, nil // whether the key should exist is checkValues' call
	}
	return o.ok() && o.owner == a.owner && o.hops == a.hops && o.messages == a.messages, nil
}

// refused reports whether code is the daemon shedding or timing out a
// request: a failed op, but not a wrong answer.
func refused(code string) bool {
	return code == "queue_full" || code == "write_timeout" || code == "mint_failed"
}

// checkValues checks every get against the writes around it. A get may
// return the value of any write (the preload, or a put that was not
// refused as unreachable) sent before the get returned, unless an
// acknowledged write started after that write completed and completed
// before the get was sent — then the earlier value was overwritten. A get
// answers not_found only if no write to its key was acknowledged before
// it was sent. So every acknowledged put must read back, also after each
// SIGKILL and restart; the readbacks of the last round read every key.
func (b *bench) checkValues() error {
	writes := map[string][]*op{}
	for _, phase := range []string{"preload", "rw"} {
		for _, o := range b.phases[phase] {
			if o.kind == kPut && o.code != "unreachable" {
				writes[o.key] = append(writes[o.key], o)
			}
		}
	}
	for phase, ops := range b.phases {
		for _, g := range ops {
			if g.kind != kGet || g.code == "unreachable" {
				continue
			}
			if err := readAllowed(g, writes[g.key]); err != nil {
				return fmt.Errorf("check: %s get %q answered %s: %v", phase, g.key, g.code, err)
			}
		}
	}
	return nil
}

// readAllowed reports why get g could not have read what it did, or nil.
func readAllowed(g *op, writes []*op) error {
	overwritten := func(w *op) bool {
		for _, w2 := range writes {
			if w2.ok() && w2.sent.After(w.done) && w2.done.Before(g.sent) {
				return true
			}
		}
		return false
	}
	switch g.code {
	case "ok":
		for _, w := range writes {
			if !w.sent.After(g.done) && bytes.Equal(w.value, g.value) && !overwritten(w) {
				return nil
			}
		}
		return errors.New("a value no write could have left there")
	case "not_found":
		for _, w := range writes {
			if w.ok() && w.done.Before(g.sent) {
				return errors.New("an acknowledged put is missing")
			}
		}
		return nil
	}
	return errors.New("an unexpected error")
}
