package netsim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netfail/internal/capture"
	"netfail/internal/syslog"
	"netfail/internal/topo"
)

// pinnedCase is one simulator configuration whose capture bytes are
// pinned. ram is the SHA-256 of syslog.WriteLog followed by WriteLSPLog
// over Run's campaign; spill is the SHA-256 of every shard's four
// segment files, in shard order, under RunShardedToCapture with that
// many pods.
type pinnedCase struct {
	name   string
	cfg    func() Config
	fabric int
	ram    string
	spill  string
}

func daysConfig(seed int64, days int) Config {
	return Config{Seed: seed, Start: StudyStart, End: StudyStart.Add(time.Duration(days) * 24 * time.Hour)}
}

var pinnedCases = []pinnedCase{
	{name: "seed1-60d", cfg: func() Config { return daysConfig(1, 60) },
		ram:   "62d8fb8048dfeed1407e0664e5a42e750fe9dbd692a136101810efc910949364",
		spill: "91314ae244d0f4d81dffe026bbd1e7d6bf432d89220387cdf7984b62ef14adce"},
	{name: "seed2-60d", cfg: func() Config { return daysConfig(2, 60) },
		ram:   "02612390ad2d9d6310343129cda66d8453eb233b301368b22905cc450aef613a",
		spill: "4c0f0cf3fb22b86679892933c5064c1a990882c5787f035678c0a3d9a29bcaea"},
	{name: "seed3-60d", cfg: func() Config { return daysConfig(3, 60) },
		ram:   "ede6ee9ec8b6b3bfdf85994695846340b4528fe2e8b1dc04ed19fd09373de4ed",
		spill: "71fa29e8b36443809bbb989cf9eb7be86ed892e3a1b6fd87a7fd295f98c6e0d2"},
	{name: "refresh-full-2d", cfg: func() Config {
		c := daysConfig(4, 2)
		c.RefreshMode = RefreshFull
		return c
	},
		ram:   "c0751868631757326a5a58a1f8576f1322cf9ee93d389faaa91e2f0b677b2eee",
		spill: "abecf62d94e659be624470ed0f0179295bdecaab137dd171f8b5ef2464041197"},
	{name: "link-ids-30d", cfg: func() Config {
		c := daysConfig(5, 30)
		c.EnableLinkIDs = true
		return c
	},
		ram:   "e06bec09d38411bb553878551a16f4a555bb70d0d2e02323f13d81aca1a3cf04",
		spill: "ad68a2c9a1698d68fb374535cdf4703c9e251365f0c3a821c85d2bf9c2b1c4e9"},
	{name: "in-band-30d", cfg: func() Config {
		c := daysConfig(6, 30)
		c.InBandSyslog = true
		return c
	},
		ram:   "c0be28dddba8c8b0bca5b7113789765742339f8b42e2fe912ca1247f1a83d597",
		spill: "08efd32c6d279561505c961b7917ed887ca6a60f7b2cfe3f047a1245536cdb00"},
	{name: "rate-limit-30d", cfg: func() Config {
		c := daysConfig(7, 30)
		im := DefaultImpairments()
		im.RateLimitPerMin = 0.5
		im.RateLimitBurst = 2
		im.NoisePerRouterDay = 1
		c.Impair = &im
		return c
	},
		ram:   "bea6a6bd8a6aa20910522d2f975aae6695aea0368c5a73c1b1846826b13bbd70",
		spill: "918d8ef611190941c5334bf55dcd7a5e01b52266fce9fbe8f1dd81805c636411"},
	{name: "fabric2-20d", cfg: func() Config { return daysConfig(8, 20) }, fabric: 2,
		spill: "b3a2b700e93e16e2d88377c30578609beac61e82c9510f005aee9342639ab07c"},
}

// digestRAM hashes the two flat capture files of an in-RAM campaign.
func digestRAM(t *testing.T, camp *Campaign) string {
	t.Helper()
	h := sha256.New()
	if err := syslog.WriteLog(h, camp.Syslog); err != nil {
		t.Fatal(err)
	}
	if err := WriteLSPLog(h, camp.LSPLog); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestSpill hashes the four segment files of every shard of a
// capture directory, in manifest order.
func digestSpill(t *testing.T, dir string) string {
	t.Helper()
	m, err := capture.ReadManifestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, sh := range m.Shards {
		for _, name := range []string{capture.SyslogSegment, capture.SyslogIndex, capture.LSPSegment, capture.LSPIndex} {
			b, err := os.ReadFile(filepath.Join(dir, sh.Name, name))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimulatorCapturesPinned pins the simulator's output bytes — the
// rendered syslog lines, the LSP wire bytes and the spilled segment
// files — for a table of configurations covering every Config switch
// that reaches the event loop. The report golden proves the analysis
// did not move; this proves the captures did not. A failing digest
// means some RNG draw, event order or encoder byte changed.
func TestSimulatorCapturesPinned(t *testing.T) {
	ctx := context.Background()
	for _, pc := range pinnedCases {
		t.Run(pc.name, func(t *testing.T) {
			if pc.fabric == 0 {
				camp, err := Run(ctx, pc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				if got := digestRAM(t, camp); got != pc.ram {
					t.Errorf("in-RAM capture digest = %s, want %s", got, pc.ram)
				}
			}
			dir := filepath.Join(t.TempDir(), "capture")
			if _, err := RunShardedToCapture(ctx, pc.cfg(), topo.DefaultFabricSpec(pc.fabric), dir, 2); err != nil {
				t.Fatal(err)
			}
			if got := digestSpill(t, dir); got != pc.spill {
				t.Errorf("spilled capture digest = %s, want %s", got, pc.spill)
			}
		})
	}
}
