package faultinject

import (
	"bytes"
	"testing"
)

func TestKillAfterIsSeededAndInterior(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := RuntimePlan{Seed: seed}
		k := p.KillAfter(100)
		if k < 1 || k >= 100 {
			t.Fatalf("seed %d: KillAfter(100) = %d, want interior [1,100)", seed, k)
		}
		if k2 := p.KillAfter(100); k2 != k {
			t.Fatalf("seed %d: KillAfter not deterministic: %d then %d", seed, k, k2)
		}
	}
	if k := (RuntimePlan{Seed: 1}).KillAfter(1); k != 1 {
		t.Errorf("KillAfter(1) = %d, want 1", k)
	}
}

func TestCorruptBytesIsDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte{0xA5, 0x5A, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}, 64)
	p := Plan{Seed: 42, Rate: 0.2}
	out1, faults1 := CorruptBytes(data, p)
	out2, faults2 := CorruptBytes(data, p)
	if !bytes.Equal(out1, out2) {
		t.Error("same (input, Plan) produced different corrupted bytes")
	}
	if len(faults1) != len(faults2) {
		t.Errorf("same (input, Plan) produced %d vs %d faults", len(faults1), len(faults2))
	}
	if len(faults1) == 0 {
		t.Error("rate 0.2 over 512 bytes injected nothing")
	}
	if bytes.Equal(out1, data) && len(faults1) > 0 {
		t.Error("faults reported but output identical to input")
	}
}

func TestCorruptBytesTruncateFinalCutsTheTail(t *testing.T) {
	data := bytes.Repeat([]byte{0xEE}, 256)
	out, faults := CorruptBytes(data, Plan{Seed: 3, Modes: []Mode{TruncateFinal}})
	if len(out) >= len(data) {
		t.Fatalf("output %d bytes, want a truncation below %d", len(out), len(data))
	}
	if len(out) < len(data)-65 {
		t.Errorf("cut at %d, want inside the final 64-byte window", len(out))
	}
	if len(faults) != 1 || faults[0].Mode != TruncateFinal || faults[0].Offset != len(out) {
		t.Errorf("faults = %+v, want one TruncateFinal at offset %d", faults, len(out))
	}
}

func TestCorruptBytesTornWriteTruncatesInterior(t *testing.T) {
	data := bytes.Repeat([]byte{0xCC}, 256)
	// Rate*8 is the application probability for TornWrite; rate 0.5
	// makes it fire for most seeds — find one deterministically.
	for seed := int64(0); seed < 20; seed++ {
		out, faults := CorruptBytes(data, Plan{Seed: seed, Rate: 0.5, Modes: []Mode{TornWrite}})
		if len(faults) == 1 {
			if faults[0].Mode != TornWrite {
				t.Fatalf("fault mode = %v", faults[0].Mode)
			}
			if len(out) != faults[0].Offset || len(out) >= len(data) {
				t.Fatalf("cut %d bytes with fault offset %d", len(out), faults[0].Offset)
			}
			return
		}
	}
	t.Fatal("TornWrite never fired across 20 seeds at rate 0.5")
}
