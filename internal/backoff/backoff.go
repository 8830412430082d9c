// Package backoff is the repository's single retry-delay policy:
// jittered exponential backoff with an explicit retry budget,
// deterministic in a seed.
//
// Its caller is the netfail-serve supervisor's source restarts. Retry
// behaviour is load-bearing for the serving path (a restart storm with
// synchronized retries is itself an overload), so the schedule lives
// here once: callers construct a Backoff from a Policy and ask it for
// the next delay, and tests pin the exact schedule a seed produces.
package backoff

import (
	"context"
	"math/rand"
	"time"
)

// Policy parameterizes a backoff schedule. The zero value is not
// useful; start from Default and override.
type Policy struct {
	// Base is the first retry delay.
	Base time.Duration
	// Max caps each individual delay (0 = uncapped).
	Max time.Duration
	// Factor is the per-retry growth multiplier (values below 1 are
	// treated as 2, the conventional doubling).
	Factor float64
	// Jitter is the fraction of each delay that is randomized away,
	// in [0, 1]: a delay d becomes d - Jitter*d*u for uniform u in
	// [0,1). Zero keeps the schedule exact; a positive one decorrelates
	// a fleet of restarting sources so they do not retry in lockstep.
	Jitter float64
	// Retries is the consecutive-failure budget: after this many
	// delays Next reports exhaustion (0 = retry forever).
	Retries int
	// Seed drives the jitter stream; identical seeds produce
	// identical schedules. Ignored when Jitter is 0.
	Seed int64
}

// Default is the supervisor's source-restart policy: 1ms doubling,
// five retries, no jitter (1, 2, 4, 8, 16 ms).
var Default = Policy{Base: time.Millisecond, Factor: 2, Retries: 5}

// New constructs a Backoff at the start of its schedule.
func (p Policy) New() *Backoff {
	b := &Backoff{p: p}
	if p.Jitter > 0 {
		b.rng = rand.New(rand.NewSource(p.Seed))
	}
	return b
}

// A Backoff walks one Policy's delay schedule. It is not safe for
// concurrent use; each retrying loop owns its own Backoff.
type Backoff struct {
	p   Policy
	n   int // consecutive failures so far
	rng *rand.Rand
}

// Next returns the delay to sleep before the n-th consecutive retry,
// or ok=false when the retry budget is exhausted and the caller must
// surface a terminal error instead of sleeping again.
func (b *Backoff) Next() (d time.Duration, ok bool) {
	b.n++
	if b.p.Retries > 0 && b.n > b.p.Retries {
		return 0, false
	}
	factor := b.p.Factor
	if factor < 1 {
		factor = 2
	}
	d = b.p.Base
	for i := 1; i < b.n; i++ {
		d = time.Duration(float64(d) * factor)
		if b.p.Max > 0 && d >= b.p.Max {
			d = b.p.Max
			break
		}
	}
	if b.p.Max > 0 && d > b.p.Max {
		d = b.p.Max
	}
	if b.rng != nil && d > 0 {
		d -= time.Duration(b.p.Jitter * float64(d) * b.rng.Float64())
	}
	return d, true
}

// Reset marks the operation healthy again: the next failure restarts
// the schedule from Base.
func (b *Backoff) Reset() { b.n = 0 }

// SleepCtx sleeps for d or until ctx is done, whichever comes first,
// returning ctx.Err() if the context ended the sleep early. It is the
// cancellation-aware sleep every supervised retry loop must use: a
// draining daemon cannot wait out a 30-second backoff.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
