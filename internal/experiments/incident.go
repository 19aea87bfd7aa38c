package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/dfi-sdn/dfi/internal/testbed"
)

// IncidentConfig parameterizes the incident-response extension experiment:
// the paper's conclusion argues that AT-RBAC's slowdown "could provide
// additional time for an incident response team to be notified and isolate
// infected hosts" (§V-B). Here that team is modeled by the policy
// template quarantine(host) — the one dfid's -quarantine-template runs —
// instantiated for each infected host a fixed delay after compromise, and
// the claim is quantified across policy conditions.
type IncidentConfig struct {
	Seed int64
	// Delays are the detection-to-isolation times to sweep (default
	// 2, 5 and 15 minutes).
	Delays []time.Duration
	// FootholdAt is the infection start (default 09:00).
	FootholdAt time.Duration
}

func (c *IncidentConfig) setDefaults() {
	if len(c.Delays) == 0 {
		c.Delays = []time.Duration{2 * time.Minute, 5 * time.Minute, 15 * time.Minute}
	}
	if c.FootholdAt == 0 {
		c.FootholdAt = 9 * time.Hour
	}
}

// IncidentPoint is one condition × response-delay outcome.
type IncidentPoint struct {
	Condition testbed.Condition
	Delay     time.Duration // 0 = no incident response
	Infected  int
	Total     int
}

// IncidentResult holds the sweep.
type IncidentResult struct {
	Points []IncidentPoint
}

// Render prints a conditions × delays table of final infections.
func (r *IncidentResult) Render() string {
	delays := []time.Duration{}
	seen := map[time.Duration]bool{}
	for _, p := range r.Points {
		if !seen[p.Delay] {
			seen[p.Delay] = true
			delays = append(delays, p.Delay)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXTENSION: final infections with incident response (quarantine N after compromise)\n")
	fmt.Fprintf(&b, "%-12s", "condition")
	for _, d := range delays {
		label := "no IR"
		if d > 0 {
			label = "IR " + d.String()
		}
		fmt.Fprintf(&b, " %-10s", label)
	}
	b.WriteByte('\n')
	for _, cond := range []testbed.Condition{
		testbed.ConditionBaseline, testbed.ConditionSRBAC, testbed.ConditionATRBAC,
	} {
		fmt.Fprintf(&b, "%-12s", cond)
		for _, d := range delays {
			for _, p := range r.Points {
				if p.Condition == cond && p.Delay == d {
					fmt.Fprintf(&b, " %-10s", fmt.Sprintf("%d/%d", p.Infected, p.Total))
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RunIncidentResponse sweeps response delay × policy condition.
func RunIncidentResponse(cfg IncidentConfig) (*IncidentResult, error) {
	cfg.setDefaults()
	delays := append([]time.Duration{0}, cfg.Delays...)
	res := &IncidentResult{}
	for _, cond := range []testbed.Condition{
		testbed.ConditionBaseline, testbed.ConditionSRBAC, testbed.ConditionATRBAC,
	} {
		for _, delay := range delays {
			tb, err := testbed.New(testbed.Config{
				Condition:       cond,
				Seed:            cfg.Seed,
				QuarantineDelay: delay,
			})
			if err != nil {
				return nil, err
			}
			foothold := tb.FootholdHost(cfg.FootholdAt)
			out, err := tb.RunInfection(foothold, cfg.FootholdAt, cfg.FootholdAt+8*time.Hour)
			tb.Close()
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, IncidentPoint{
				Condition: cond,
				Delay:     delay,
				Infected:  len(out.Infections),
				Total:     out.TotalHosts,
			})
		}
	}
	return res, nil
}
