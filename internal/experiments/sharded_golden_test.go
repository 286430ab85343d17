package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"testing"

	"repro/internal/scenario"
)

// The differential half of the determinism contract: every pinned
// scenario must reproduce its golden digest at three execution widths.
// A scenario that declares the `shards` execution parameter partitions
// one clustered simulation, so it runs at shards=1 (the sequential
// reference), 2 and 4; every other scenario runs its sweep at
// -parallel 1, 2 and 4.

// declaresShards reports whether s takes the `shards` parameter.
func declaresShards(s scenario.Scenario) bool {
	for _, spec := range s.Params() {
		if spec.Key == "shards" {
			return true
		}
	}
	return false
}

// TestShardedScenarioCoverage requires `shards` to be execution-only
// wherever it is declared: it must never reach the canonical parameter
// map, or the digests could not be shard-invariant by construction.
func TestShardedScenarioCoverage(t *testing.T) {
	for _, s := range scenario.Default.All() {
		for _, spec := range s.Params() {
			if spec.Key == "shards" && !spec.Exec {
				t.Errorf("scenario %q declares `shards` as a result parameter; it must be execution-only (Exec)", s.Name())
			}
		}
	}
}

// TestShardedScenarioDigestInvariance runs every pinned scenario at its
// golden parameter point at widths 1, 2 and 4 — engine shards where the
// scenario declares `shards`, sweep workers elsewhere — and requires
// each canonical digest to equal the pinned one. Under -short only the
// fast entries run (the slow OLTP grids take seconds each).
func TestShardedScenarioDigestInvariance(t *testing.T) {
	defer SetParallelism(0)
	names := make([]string, 0, len(scenarioGoldens))
	for name := range scenarioGoldens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := scenarioGoldens[name]
		if g.slow && testing.Short() {
			continue
		}
		s, ok := scenario.Default.Lookup(name)
		if !ok {
			continue // reported by TestScenarioGoldenCoverage
		}
		sharded := declaresShards(s)
		for _, width := range []int{1, 2, 4} {
			overrides := map[string]string{}
			for k, v := range g.overrides {
				overrides[k] = v
			}
			knob := "parallel"
			if sharded {
				knob = "shards"
				overrides["shards"] = strconv.Itoa(width)
				SetParallelism(0)
			} else {
				SetParallelism(width)
			}
			cfg, err := scenario.NewConfig(s, overrides)
			if err != nil {
				t.Errorf("%s %s=%d: config: %v", name, knob, width, err)
				continue
			}
			res, err := s.Run(cfg)
			if err != nil {
				t.Errorf("%s %s=%d: run: %v", name, knob, width, err)
				continue
			}
			data, err := res.MarshalCanonical()
			if err != nil {
				t.Errorf("%s %s=%d: marshal: %v", name, knob, width, err)
				continue
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("%s: digest at %s=%d diverged from the golden digest:\n got %s\nwant %s",
					name, knob, width, got, g.digest)
			}
		}
	}
}
