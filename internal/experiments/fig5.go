package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/dfi-sdn/dfi/internal/testbed"
)

// Fig5aConfig parameterizes the 09:00-foothold infection comparison
// (§V-B Figure 5a).
type Fig5aConfig struct {
	// Seed fixes the testbed population, scripts and worm randomness
	// across all three conditions.
	Seed int64
	// FootholdAt is the infection start, offset from midnight (default
	// 09:00).
	FootholdAt time.Duration
	// Horizon ends the simulation (default 20h, well past every worm
	// lifetime).
	Horizon time.Duration
	// Interval and Span shape the reported timeline (defaults 1 min over
	// 60 min, the paper's first-hour plot).
	Interval time.Duration
	Span     time.Duration
}

func (c *Fig5aConfig) setDefaults() {
	if c.FootholdAt == 0 {
		c.FootholdAt = 9 * time.Hour
	}
	if c.Horizon == 0 {
		c.Horizon = 20 * time.Hour
	}
	if c.Interval == 0 {
		c.Interval = time.Minute
	}
	if c.Span == 0 {
		c.Span = time.Hour
	}
}

// Fig5aResult holds the three infection curves.
type Fig5aResult struct {
	Foothold   string
	FootholdAt time.Duration
	Interval   time.Duration
	Baseline   *testbed.Result
	SRBAC      *testbed.Result
	ATRBAC     *testbed.Result
}

// Render prints the three cumulative-infection series.
func (r *Fig5aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 5a: Infections over time (foothold %s at %s)\n",
		r.Foothold, clockString(r.FootholdAt))
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-10s\n", "t (min)", "Baseline", "S-RBAC", "AT-RBAC")
	span := time.Hour
	base := r.Baseline.Timeline(r.Interval, span)
	srb := r.SRBAC.Timeline(r.Interval, span)
	atr := r.ATRBAC.Timeline(r.Interval, span)
	for i := range base {
		fmt.Fprintf(&b, "%-10d %-10d %-10d %-10d\n",
			i*int(r.Interval/time.Minute), base[i], srb[i], atr[i])
	}
	fmt.Fprintf(&b, "final:     %-10d %-10d %-10d (of %d)\n",
		len(r.Baseline.Infections), len(r.SRBAC.Infections), len(r.ATRBAC.Infections),
		r.Baseline.TotalHosts)
	return b.String()
}

// RunFig5a runs the worm under all three conditions with identical
// population, scripts and foothold.
func RunFig5a(cfg Fig5aConfig) (*Fig5aResult, error) {
	cfg.setDefaults()
	res := &Fig5aResult{FootholdAt: cfg.FootholdAt, Interval: cfg.Interval}
	for _, cond := range []testbed.Condition{
		testbed.ConditionBaseline, testbed.ConditionSRBAC, testbed.ConditionATRBAC,
	} {
		tb, err := testbed.New(testbed.Config{Condition: cond, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		foothold := tb.FootholdHost(cfg.FootholdAt)
		res.Foothold = foothold
		out, err := tb.RunInfection(foothold, cfg.FootholdAt, cfg.Horizon)
		tb.Close()
		if err != nil {
			return nil, err
		}
		switch cond {
		case testbed.ConditionBaseline:
			res.Baseline = out
		case testbed.ConditionSRBAC:
			res.SRBAC = out
		case testbed.ConditionATRBAC:
			res.ATRBAC = out
		}
	}
	return res, nil
}

// Fig5bConfig parameterizes the foothold-hour sweep (§V-B Figure 5b).
type Fig5bConfig struct {
	Seed int64
	// Hours are the foothold hours to sweep (default 0–23).
	Hours []int
	// SpanAfter bounds how long after the foothold the simulation runs
	// (default 6h — every worm lifetime has expired long before).
	SpanAfter time.Duration
}

func (c *Fig5bConfig) setDefaults() {
	if len(c.Hours) == 0 {
		for h := 0; h < 24; h++ {
			c.Hours = append(c.Hours, h)
		}
	}
	if c.SpanAfter == 0 {
		c.SpanAfter = 6 * time.Hour
	}
}

// Fig5bPoint is one foothold hour's outcome under AT-RBAC.
type Fig5bPoint struct {
	Hour     int
	Foothold string
	Infected int
	Total    int
}

// Fig5bResult holds the sweep.
type Fig5bResult struct {
	Points []Fig5bPoint
}

// Render prints infections per foothold hour.
func (r *Fig5bResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 5b: AT-RBAC infections by foothold hour\n")
	fmt.Fprintf(&b, "%-8s %-12s %-10s\n", "hour", "foothold", "infected")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%02d:00    %-12s %d/%d\n", p.Hour, p.Foothold, p.Infected, p.Total)
	}
	return b.String()
}

// RunFig5b sweeps the foothold hour under AT-RBAC.
func RunFig5b(cfg Fig5bConfig) (*Fig5bResult, error) {
	cfg.setDefaults()
	res := &Fig5bResult{}
	for _, hour := range cfg.Hours {
		tb, err := testbed.New(testbed.Config{Condition: testbed.ConditionATRBAC, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		at := time.Duration(hour) * time.Hour
		foothold := tb.FootholdHost(at)
		out, err := tb.RunInfection(foothold, at, at+cfg.SpanAfter)
		tb.Close()
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig5bPoint{
			Hour:     hour,
			Foothold: foothold,
			Infected: len(out.Infections),
			Total:    out.TotalHosts,
		})
	}
	return res, nil
}

func clockString(d time.Duration) string {
	return fmt.Sprintf("%02d:%02d", int(d.Hours()), int(d.Minutes())%60)
}
