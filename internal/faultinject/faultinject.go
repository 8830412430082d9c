// Package faultinject deterministically corrupts the on-disk capture
// formats (LSP log, syslog archive) so degraded-input behaviour is
// testable bit-for-bit reproducibly.
//
// All capture formats are line-oriented, so the corruptor operates on
// lines: each record is independently corrupted with a configured
// probability, and the corruption mode is drawn from the same seeded
// stream. Identical (input, Plan) pairs therefore produce identical
// corrupted outputs — the repo's determinism invariant extended to its
// failure modes. The modes mirror what operational captures actually
// suffer: torn writes from a crashed collector, bit rot in hex
// payloads, mangled timestamps, interleaved garbage from a second
// writer, and a truncated final record.
package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
)

// Mode is one corruption technique.
type Mode int

const (
	// BitFlip flips one bit of one byte in the record — inside an LSP
	// log line this usually lands in the hex payload, producing either
	// invalid hex (reader skips) or a valid-hex-but-corrupt PDU that
	// flows into the listener's decode-error accounting.
	BitFlip Mode = iota
	// MangleTimestamp overwrites the record's first digit run,
	// destroying whichever timestamp field the format carries.
	MangleTimestamp
	// GarbageLine interleaves a non-record line before this record,
	// as a second writer sharing the file descriptor would.
	GarbageLine
	// TornWrite truncates the record at a random interior byte: a
	// mid-file partial write flushed before the crash.
	TornWrite
	// TruncateFinal cuts the file's final record mid-way and drops
	// the trailing newline: the classic crash-stop capture tail.
	TruncateFinal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case BitFlip:
		return "bit-flip"
	case MangleTimestamp:
		return "mangle-timestamp"
	case GarbageLine:
		return "garbage-line"
	case TornWrite:
		return "torn-write"
	case TruncateFinal:
		return "truncate-final"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault records one injected corruption.
type Fault struct {
	// Line is the 1-based line number in the corrupted output where
	// the fault landed (for GarbageLine, the inserted line itself).
	Line int
	// Mode is the technique applied.
	Mode Mode
}

// Plan parameterizes one corruption pass.
type Plan struct {
	// Seed drives every random choice; identical seeds over identical
	// input produce byte-identical output.
	Seed int64
	// Rate is the per-record corruption probability (0 disables the
	// per-line modes).
	Rate float64
	// Modes restricts the techniques applied; nil means all of them.
	// TruncateFinal applies once, at the end, when selected.
	Modes []Mode
}

// perLineModes are the modes applied record-by-record at Plan.Rate.
var perLineModes = []Mode{BitFlip, MangleTimestamp, GarbageLine, TornWrite}

// Corrupt applies the plan to a line-oriented capture and returns the
// corrupted bytes plus the list of injected faults in output order.
// The input is not modified.
func Corrupt(data []byte, p Plan) ([]byte, []Fault) {
	rng := rand.New(rand.NewSource(p.Seed))
	inline, truncateFinal := selectedModes(p.Modes)

	lines := splitLines(data)
	var out bytes.Buffer
	out.Grow(len(data) + 256)
	var faults []Fault
	outLine := 0

	for _, line := range lines {
		if len(inline) > 0 && len(line) > 0 && rng.Float64() < p.Rate {
			mode := inline[rng.Intn(len(inline))]
			if mode == GarbageLine {
				outLine++
				faults = append(faults, Fault{Line: outLine, Mode: mode})
				fmt.Fprintf(&out, "!!garbage %08x interleaved!!\n", rng.Uint32())
				outLine++
				out.Write(line)
				out.WriteByte('\n')
				continue
			}
			outLine++
			faults = append(faults, Fault{Line: outLine, Mode: mode})
			out.Write(corruptLine(rng, line, mode))
			out.WriteByte('\n')
			continue
		}
		outLine++
		out.Write(line)
		out.WriteByte('\n')
	}

	result := out.Bytes()
	if truncateFinal && len(result) > 0 {
		// Locate the final record in the output (a per-line mode may
		// already have reshaped it) and cut it mid-way, dropping the
		// trailing newline with it.
		body := result[:len(result)-1]
		start := bytes.LastIndexByte(body, '\n') + 1
		if last := len(body) - start; last > 1 {
			cut := 1 + rng.Intn(last-1)
			result = body[:start+cut]
			faults = append(faults, Fault{Line: outLine, Mode: TruncateFinal})
		}
	}
	return result, faults
}

// selectedModes partitions the plan's modes into the per-line set and
// the final-truncation flag.
func selectedModes(modes []Mode) (inline []Mode, truncateFinal bool) {
	if modes == nil {
		return perLineModes, true
	}
	for _, m := range modes {
		if m == TruncateFinal {
			truncateFinal = true
			continue
		}
		inline = append(inline, m)
	}
	return inline, truncateFinal
}

// corruptLine applies one per-line mode, returning a new slice.
func corruptLine(rng *rand.Rand, line []byte, mode Mode) []byte {
	out := append([]byte(nil), line...)
	switch mode {
	case BitFlip:
		i := rng.Intn(len(out))
		out[i] ^= 1 << uint(rng.Intn(8))
		// A flip landing on a newline byte would silently split the
		// record in two and skew line accounting; nudge it off.
		if out[i] == '\n' || out[i] == '\r' {
			out[i] ^= 0x01
		}
	case MangleTimestamp:
		mangleDigits(out)
	case TornWrite:
		if len(out) > 1 {
			out = out[:1+rng.Intn(len(out)-1)]
		}
	}
	return out
}

// mangleDigits overwrites the first run of digits (up to four bytes)
// with non-numeric garbage.
func mangleDigits(line []byte) {
	for i := 0; i < len(line); i++ {
		if line[i] >= '0' && line[i] <= '9' {
			for j := i; j < len(line) && j < i+4 && line[j] >= '0' && line[j] <= '9'; j++ {
				line[j] = 'Z'
			}
			return
		}
	}
}

// splitLines splits on '\n', tolerating a missing trailing newline;
// the final empty slice after a trailing newline is dropped so that
// Corrupt's re-join does not append a blank line.
func splitLines(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	lines := bytes.Split(data, []byte{'\n'})
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}
