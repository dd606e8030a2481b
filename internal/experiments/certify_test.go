package experiments

import (
	"testing"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/faults"
	"ffc/internal/sim"
)

// TestDefaultFFCRunCertifies runs the simulator's default FFC run — (2,1,0)
// with the environment's own solver options, as ffcsim does — and
// certifies every installed plan exactly against the plan it replaced, the
// elements already down and the protection the class achieved. The
// guarantee is the paper's product: no plan may overload a link under any
// fault combination within its protection level.
func TestDefaultFFCRunCertifies(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (2,1,0) simulation")
	}
	e, err := NewLNet(EnvConfig{Sites: 4, Intervals: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.runCfg(core.Protection{Kc: 2, Ke: 1})
	plans := 0
	cfg.OnPlan = func(pr sim.PlanRecord) {
		plans++
		cert, err := check.Certify(e.Net, e.Tun, pr.State, pr.Prev, check.Params{
			Prot:         pr.Prot,
			RateLimiter:  e.Opts.RateLimiter,
			Mode:         check.Exact,
			DownLinks:    pr.DownLinks,
			DownSwitches: pr.DownSwitches,
		})
		if err != nil {
			t.Errorf("interval %d: %v", pr.Interval, err)
			return
		}
		if !cert.Exact || !cert.OK {
			t.Errorf("interval %d at %v: %s", pr.Interval, pr.Prot, cert.Summary())
		}
	}
	if _, err := sim.Run(e.Scenario(1, faults.Realistic()), cfg); err != nil {
		t.Fatal(err)
	}
	if plans == 0 {
		t.Fatal("the run installed no plans")
	}
}
