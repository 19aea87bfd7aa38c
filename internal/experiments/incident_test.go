package experiments

import (
	"testing"
	"time"
)

func TestIncidentResponseQuantifiesSlowdownBenefit(t *testing.T) {
	res, err := RunIncidentResponse(IncidentConfig{Seed: 3, Delays: []time.Duration{5 * time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	checkGolden(t, "incident.tsv", res.TSV())
	get := func(cond int, delay time.Duration) int {
		for _, p := range res.Points {
			if int(p.Condition) == cond && p.Delay == delay {
				return p.Infected
			}
		}
		t.Fatalf("missing point %d/%v", cond, delay)
		return 0
	}
	const (
		baseline = 1
		srbac    = 2
		atrbac   = 3
	)
	// With a 5-minute response, slower policies leave fewer infections:
	// the paper's "more time for incident response" claim, quantified.
	if get(atrbac, 5*time.Minute) >= get(srbac, 5*time.Minute) {
		t.Errorf("AT-RBAC+IR (%d) not better than S-RBAC+IR (%d)",
			get(atrbac, 5*time.Minute), get(srbac, 5*time.Minute))
	}
	// Fast-spreading conditions outrun a 5-minute response entirely: the
	// worm fully infects Baseline (~1 min) and S-RBAC (~15 min via the
	// servers) before isolation matters.
	if get(srbac, 5*time.Minute) > get(baseline, 5*time.Minute) {
		t.Errorf("S-RBAC+IR (%d) worse than Baseline+IR (%d)",
			get(srbac, 5*time.Minute), get(baseline, 5*time.Minute))
	}
	// And AT-RBAC with response must be dramatically better than without:
	// the quantified version of the paper's closing claim.
	if 2*get(atrbac, 5*time.Minute) >= get(atrbac, 0) {
		t.Errorf("IR under AT-RBAC (%d) not a large improvement over none (%d)",
			get(atrbac, 5*time.Minute), get(atrbac, 0))
	}
	// IR always helps vs no IR for the gated policies.
	if get(atrbac, 5*time.Minute) > get(atrbac, 0) {
		t.Errorf("IR made AT-RBAC worse: %d > %d", get(atrbac, 5*time.Minute), get(atrbac, 0))
	}
}
