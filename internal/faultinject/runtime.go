// Runtime faults: the corruptor in faultinject.go damages captures at
// rest; the helpers here damage a *running* daemon deterministically.
// They are the chaos vocabulary the serving path (internal/serve,
// cmd/netfail-serve) is tested against: a checkpoint write torn
// partway through, and a seeded choice of where to hard-kill the
// process mid-ingest. Everything is driven by explicit seeds, so a
// chaos run replays bit-for-bit.
package faultinject

import (
	"errors"
	"io"
	"math/rand"
)

// RuntimePlan seeds the runtime chaos choices the way Plan seeds the
// capture corruptor: identical seeds make identical choices.
type RuntimePlan struct {
	// Seed drives every choice the plan makes.
	Seed int64
}

// KillAfter picks the durable-record count after which the chaos
// harness hard-kills (SIGKILL) the daemon: an interior point of the
// ingest, never before the first record and never after the last.
func (p RuntimePlan) KillAfter(total int) int {
	if total <= 2 {
		return 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	return 1 + rng.Intn(total-1)
}

// ErrTorn is the error a TornWriter returns once its budget is spent,
// leaving the bytes written so far behind as a torn prefix.
var ErrTorn = errors.New("faultinject: torn write")

// TornWriter wraps w to pass through at most n bytes and then fail
// every subsequent write with ErrTorn — a checkpoint write torn
// mid-stream by a crash or a full disk. The prefix actually written
// is exactly n bytes, so the tear lands at a byte-precise, replayable
// offset.
func TornWriter(w io.Writer, n int) io.Writer {
	return &tornWriter{w: w, left: n}
}

type tornWriter struct {
	w    io.Writer
	left int
}

func (t *tornWriter) Write(p []byte) (int, error) {
	if t.left <= 0 {
		return 0, ErrTorn
	}
	if len(p) <= t.left {
		n, err := t.w.Write(p)
		t.left -= n
		return n, err
	}
	n, err := t.w.Write(p[:t.left])
	t.left -= n
	if err != nil {
		return n, err
	}
	return n, ErrTorn
}

// ByteFault records one corruption at a byte offset of a binary
// stream (the binary analogue of Fault, which is line-oriented).
type ByteFault struct {
	// Offset is the 0-based byte offset in the corrupted output where
	// the fault landed (for truncations, the cut point).
	Offset int
	// Mode is the technique applied.
	Mode Mode
}

// CorruptBytes applies the plan to a binary stream — the checkpoint
// snapshot and WAL formats, which are framed rather than
// line-oriented. The plan's modes map onto bytes:
//
//   - BitFlip flips one seeded bit per 64-byte window at Rate;
//   - GarbageLine splices a short run of seeded garbage bytes;
//   - TornWrite truncates at a seeded interior offset;
//   - TruncateFinal cuts inside the final 64-byte window — the
//     crash-stop tail.
//
// MangleTimestamp has no binary meaning and is ignored. The input is
// not modified; identical (input, Plan) pairs produce identical
// output.
func CorruptBytes(data []byte, p Plan) ([]byte, []ByteFault) {
	rng := rand.New(rand.NewSource(p.Seed))
	inline, truncateFinal := selectedModes(p.Modes)
	out := append([]byte(nil), data...)
	var faults []ByteFault

	const window = 64
	for _, mode := range inline {
		switch mode {
		case BitFlip:
			for w := 0; w < len(out); w += window {
				if rng.Float64() >= p.Rate {
					continue
				}
				end := w + window
				if end > len(out) {
					end = len(out)
				}
				i := w + rng.Intn(end-w)
				out[i] ^= 1 << uint(rng.Intn(8))
				faults = append(faults, ByteFault{Offset: i, Mode: BitFlip})
			}
		case GarbageLine:
			if len(out) > 0 && rng.Float64() < p.Rate*8 {
				at := rng.Intn(len(out))
				garbage := make([]byte, 8+rng.Intn(24))
				for i := range garbage {
					garbage[i] = byte(rng.Intn(256))
				}
				out = append(out[:at], append(garbage, out[at:]...)...)
				faults = append(faults, ByteFault{Offset: at, Mode: GarbageLine})
			}
		case TornWrite:
			if len(out) > 1 && rng.Float64() < p.Rate*8 {
				cut := 1 + rng.Intn(len(out)-1)
				out = out[:cut]
				faults = append(faults, ByteFault{Offset: cut, Mode: TornWrite})
			}
		}
	}
	if truncateFinal && len(out) > 1 {
		tail := window
		if tail >= len(out) {
			tail = len(out) - 1
		}
		cut := len(out) - 1 - rng.Intn(tail)
		out = out[:cut]
		faults = append(faults, ByteFault{Offset: cut, Mode: TruncateFinal})
	}
	return out, faults
}
