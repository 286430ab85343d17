// The proxy call-path microbenchmarks as first-class scenarios, so the
// wall-clock perf harness (`dipcbench bench`, CI's perf-smoke job)
// tracks the simulator's hottest code — core.Proxy's precompiled call
// path — directly instead of only through whole-figure runs. The
// simulated quantities are deterministic and digest-pinned like every
// other scenario; what the perf harness watches is how long the host
// takes to simulate them.

package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// runCrossCallScenario measures the Low- and High-policy call paths at
// one chain depth.
func runCrossCallScenario(name string) func(cfg *scenario.Config) (*scenario.Result, error) {
	return func(cfg *scenario.Config) (*scenario.Result, error) {
		depth := cfg.Int("depth")
		calls := cfg.Int("calls")
		cells := sweep(2, func(i int) *CrossCallResult {
			return MeasureCrossCallChain(depth, calls, i == 1)
		})
		res := &scenario.Result{Scenario: name, Params: cfg.ParamStrings()}
		for _, r := range cells {
			res.Series = append(res.Series, scenario.Series{
				Label: r.Label(), Unit: "ns/call",
				Points: []scenario.Point{{X: float64(r.Depth), Y: r.MeanPerOp.Nanoseconds()}},
			})
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%d calls x %d hop(s); caller APL-cache hit rate %.4f (track_process hot path, §6.1.2)",
			calls, depth, cells[0].APLHitRate))
		return res, nil
	}
}

func crossCallParams(defDepth, defCalls string) []scenario.ParamSpec {
	return []scenario.ParamSpec{
		scenario.Param("depth", scenario.Int, defDepth, "proxied processes chained behind the caller"),
		scenario.Param("calls", scenario.Int, defCalls, "measured synchronous round trips"),
	}
}

func init() {
	scenario.Register(scenario.New("crosscall",
		"Proxy call-path microbenchmark: one cross-process dIPC call, Low and High policies (perf-smoke tracked)",
		crossCallParams("1", "30000"), runCrossCallScenario("crosscall")))
	scenario.Register(scenario.New("crosscalldeep",
		"Proxy call-path microbenchmark at chain depth: nested proxied calls per op (perf-smoke tracked)",
		crossCallParams("8", "8000"), runCrossCallScenario("crosscalldeep")))
}
