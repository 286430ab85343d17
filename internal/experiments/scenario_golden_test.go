package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// Golden SHA-256 digests of every scenario's canonical dipc-scenario/v1
// JSON document at a fixed parameter point, captured on the current
// engine (PR 3). Together with golden_test.go (which pins the legacy
// text of Fig2/Fig5/OLTP to the pre-pooling engine) this extends the
// determinism contract to the whole registry: any change to a simulated
// quantity, to series construction, or to the canonical encoding shows
// up as a digest mismatch.
//
// OLTP-backed entries use shrunken windows so the full table stays
// runnable in CI; `slow` entries are skipped under -short.
var scenarioGoldens = map[string]struct {
	overrides map[string]string
	digest    string
	slow      bool
}{
	"anchors":      {nil, "d05cae37f25a9e6ea2e6fa87398cac4a6e1f7b136dca0e7126de35367d53527a", false},
	"table1":       {nil, "b808967f802964d39f7437913ec0def77936052f67d1989bb87f2e055becb4f2", false},
	"fig2":         {nil, "72cfbcff8e2fdf062fd83ea8ec08ac05b977871e02537672ad0e7ebdb0b1d6ba", false},
	"fig5":         {nil, "6cebdd407424354187ba20b84c62928cee79f276358ace302f2b4ea7640edabc", false},
	"fig6":         {map[string]string{"maxpow": "8"}, "f8454ffb97e36c6c23bb509b8084e18337599f1fd0b8932660bc8722d0cf8171", false},
	"fig7":         {map[string]string{"step": "6"}, "4657c8a74f31da02dde7d50cb9edafbc3807f4edd2f520ded59d6e8e87109466", false},
	"ablation-tls": {nil, "67306b5e1ad52b20f857c8cbd9f349637e203e85178c967c3904bd6c621b9b14", false},
	"fig1":         {map[string]string{"window": "30ms"}, "1ef59d21ec64709ae848f5497e1fa21566398f2d22cc9baa5a6484801bc04e02", true},
	"fig8": {map[string]string{"threads": "4,16", "window": "20ms"},
		"325754619f28134029ad47da36aec7a55e7c48d877cddee9438f50084bc08814", true},
	"fig8scaling": {map[string]string{"cpus": "1,2", "threads": "4", "window": "20ms"},
		"2dd0a304a257562938c8b3c9f244e3bc230e2523f4710eac7bd7cd55e3dc976a", true},
	"sensitivity": {map[string]string{"threads": "4", "window": "20ms"},
		"f225f1683cd2a203b897e44e1b21b7f6d1ddb489bb370760a5eddbae150042c4", true},
	"ablation-sharedpt": {map[string]string{"threads": "4", "window": "20ms"},
		"52cb04bfbf49963ff55ca8de15a698e6714e4d5db10e51f3619cd48f0137703a", true},
	"ablation-steal": {map[string]string{"threads": "4", "window": "20ms"},
		"5e56c672aa925106a105c3433dc413870deedc2f565bc39cd627d8e283c2c5c8", true},
	"chain": {map[string]string{"depth": "1,2", "threads": "4", "window": "20ms"},
		"b9c0fef5ea99e0653010c63372e71e5b854ff52cd8e191caaea9fa955bb18917", true},
	"crosscall":     {nil, "59b36b2287e85cf8f8ceab222adedb467530d73aac0e45a9304b2e4b0964d20b", false},
	"crosscalldeep": {nil, "36e8a478a68eb33a3584a721d4efa69499fe154a60bf58d37e1de4632949ae40", false},
	"rack": {map[string]string{"window": "10ms", "warmup": "2ms"},
		"c1ce13c9be9945c7278c6db36ea4169708fb446163f6e22a2f2aba342928df4f", false},
	"chaos-kill": {map[string]string{"window": "10ms", "warmup": "3ms", "killat": "5ms", "restartat": "8ms"},
		"1b59910f97f7c3dae700e5daf6ad38060dc8b6e4ec3a5da3e60d7d7cc07a5d7d", false},
	"chaos-rack": {map[string]string{"window": "8ms", "warmup": "2ms", "flapperiod": "3ms", "flapdown": "1ms"},
		"c20c57ea64aaa4fb62eae089670cf9779d542dfa2f364bf0ffd6b5b62bff0cc6", false},
	"chaos-retrystorm": {map[string]string{"window": "5ms", "warmup": "2ms"},
		"d1af28d2762d6c430e70ad9f736a39a8e850e52570e7803c1294e70bf4044cfb", false},
	"overload-knee": {map[string]string{"window": "10ms", "warmup": "3ms"},
		"850bdbc020ac453b8f241bfd2c2f6a2f25d991ba89fa3f96d51dacf00e872a76", false},
	"overload-shed": {map[string]string{"window": "10ms", "warmup": "3ms"},
		"356d3fd19106746a190bf0d5befd44d146cc8e1c34fb08fd4bc7234ff8620269", false},
	"overload-storm": {nil,
		"dc143cae409a796a6e8dc2f55ef75bef7189576fe77406935c2e5a02d1fd8fb4", false},
	"failover-kill": {map[string]string{"window": "8ms", "warmup": "2ms", "killat": "3ms", "restartat": "5ms"},
		"756f9a405e842a5744f0bbc13e9109316f6cc84afbdc7131a5871a313da3a32c", false},
	"failover-flap": {map[string]string{"window": "8ms", "warmup": "2ms"},
		"56412ac7434671602120e54ed9660235d4e7f393fcae045961103bc1fe0403f9", false},
	"failover-hedge": {map[string]string{"window": "8ms", "warmup": "2ms"},
		"2b36611a3dae5674249d02a850b27fa4675a264e79c24677e15a1c6c84ebd7e7", false},
}

// TestScenarioGoldenCoverage enforces, by iterating the registry, that
// every registered scenario is digest-pinned — or explicitly opts out by
// implementing scenario.NonDeterministic with a stated reason (e.g. a
// future wall-clock-dependent scenario). Opting out and having a digest
// are mutually exclusive.
func TestScenarioGoldenCoverage(t *testing.T) {
	for _, s := range scenario.Default.All() {
		name := s.Name()
		_, pinned := scenarioGoldens[name]
		if nd, ok := s.(scenario.NonDeterministic); ok {
			if strings.TrimSpace(nd.NonDeterministic()) == "" {
				t.Errorf("scenario %q opts out of golden digests without a reason", name)
			}
			if pinned {
				t.Errorf("scenario %q both opts out and has a golden digest", name)
			}
			continue
		}
		if !pinned {
			t.Errorf("scenario %q has no golden digest entry and does not declare why (scenario.NonDeterministic)", name)
		}
	}
	for name := range scenarioGoldens {
		if _, ok := scenario.Default.Lookup(name); !ok {
			t.Errorf("golden digest for unregistered scenario %q", name)
		}
	}
}

// TestScenarioGoldenDigests runs each pinned scenario at its golden
// parameter point and compares the SHA-256 of the canonical JSON.
func TestScenarioGoldenDigests(t *testing.T) {
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
			continue // reported by the coverage test
		}
		cfg, err := scenario.NewConfig(s, g.overrides)
		if err != nil {
			t.Errorf("%s: config: %v", name, err)
			continue
		}
		res, err := s.Run(cfg)
		if err != nil {
			t.Errorf("%s: run: %v", name, err)
			continue
		}
		data, err := res.MarshalCanonical()
		if err != nil {
			t.Errorf("%s: marshal: %v", name, err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != g.digest {
			t.Errorf("%s: canonical JSON diverged from golden digest:\n got %s\nwant %s", name, got, g.digest)
		}
		if res.Scenario != name {
			t.Errorf("%s: result names scenario %q", name, res.Scenario)
		}
		if len(res.Series) == 0 {
			t.Errorf("%s: result has no series", name)
		}
	}
}
