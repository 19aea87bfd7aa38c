package admin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/obs/slo"
)

// Client talks to a dfid admin endpoint.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the admin API at base (e.g.
// "http://127.0.0.1:8181").
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{}}
}

// Rules lists every manager rule (read-only; policy changes go through
// ApplyPolicy).
func (c *Client) Rules() ([]RuleJSON, error) {
	var out []RuleJSON
	return out, c.do(http.MethodGet, "/v1/rules", nil, &out)
}

// Policy fetches the running policy document (canonical policytext
// source, including runtime group-membership changes).
func (c *Client) Policy() (string, error) {
	var out PolicyDocJSON
	if err := c.do(http.MethodGet, "/v1/policy", nil, &out); err != nil {
		return "", err
	}
	return out.Source, nil
}

// ApplyPolicy atomically replaces the policy document with src, returning
// the rule delta the apply produced. With dryRun the document is only
// validated and diffed: the returned delta is what an apply would do, and
// nothing changes on the server.
func (c *Client) ApplyPolicy(src string, dryRun bool) (PolicyDeltaJSON, error) {
	path := "/v1/policy"
	if dryRun {
		path += "?dryRun=1"
	}
	var out PolicyDeltaJSON
	return out, c.do(http.MethodPut, path, PolicyDocJSON{Source: src}, &out)
}

// DiffPolicy previews the rule delta that applying src would produce,
// without applying it.
func (c *Client) DiffPolicy(src string) (PolicyDeltaJSON, error) {
	var out PolicyDeltaJSON
	return out, c.do(http.MethodPost, "/v1/policy/diff", PolicyDocJSON{Source: src}, &out)
}

// CompiledPolicy lists the lowered rules the policy document compiled to,
// each with provenance back to its source statement.
func (c *Client) CompiledPolicy() ([]CompiledRuleJSON, error) {
	var out []CompiledRuleJSON
	return out, c.do(http.MethodGet, "/v1/policy/compiled", nil, &out)
}

// AddBinding adds or removes an identifier binding.
func (c *Client) AddBinding(b BindingJSON) error {
	return c.do(http.MethodPost, "/v1/bindings", b, nil)
}

// Switches lists the datapath ids attached through the proxy.
func (c *Client) Switches() ([]uint64, error) {
	var out []uint64
	return out, c.do(http.MethodGet, "/v1/switches", nil, &out)
}

// Flows reads the installed flow rules of one switch (all tables).
func (c *Client) Flows(dpid uint64) ([]FlowJSON, error) {
	var out []FlowJSON
	return out, c.do(http.MethodGet, fmt.Sprintf("/v1/flows/%d", dpid), nil, &out)
}

// Stats reads control-plane statistics.
func (c *Client) Stats() (StatsJSON, error) {
	var out StatsJSON
	return out, c.do(http.MethodGet, "/v1/stats", nil, &out)
}

// Healthz reads the liveness summary.
func (c *Client) Healthz() (HealthJSON, error) {
	var out HealthJSON
	return out, c.do(http.MethodGet, "/v1/healthz", nil, &out)
}

// Spans reads every retained span of one causal trace, oldest first.
func (c *Client) Spans(trace uint64) ([]SpanJSON, error) {
	var out []SpanJSON
	return out, c.do(http.MethodGet, fmt.Sprintf("/v1/spans?trace=%d", trace), nil, &out)
}

// RecentSpans reads the last n committed spans, most recent first.
func (c *Client) RecentSpans(n int) ([]SpanJSON, error) {
	var out []SpanJSON
	return out, c.do(http.MethodGet, fmt.Sprintf("/v1/spans?n=%d", n), nil, &out)
}

// Audit reads the last n audit records, most recent first.
func (c *Client) Audit(n int) ([]obs.AuditRecord, error) {
	var out []obs.AuditRecord
	return out, c.do(http.MethodGet, fmt.Sprintf("/v1/audit?n=%d", n), nil, &out)
}

// AuditVerify asks the server to walk its on-disk audit chain end to end.
func (c *Client) AuditVerify() (AuditVerifyJSON, error) {
	var out AuditVerifyJSON
	return out, c.do(http.MethodGet, "/v1/audit/verify", nil, &out)
}

// SLO reads the server's current service-level-objective report. A server
// without WithSLO answers an enveloped not_found, surfaced as an error.
func (c *Client) SLO() (slo.Report, error) {
	var out slo.Report
	return out, c.do(http.MethodGet, "/v1/slo", nil, &out)
}

// Metrics reads the Prometheus text exposition of every registered
// instrument.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/v1/metrics")
	if err != nil {
		return "", fmt.Errorf("admin client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", fmt.Errorf("admin client: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("admin client: %w", err)
	}
	return string(raw), nil
}

func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("admin client: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("admin client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("admin client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var apiErr ErrorJSON
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error.Message != "" {
			return fmt.Errorf("admin client: %s: %s (%s)",
				resp.Status, apiErr.Error.Message, apiErr.Error.Code)
		}
		return fmt.Errorf("admin client: %s", resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("admin client: decode: %w", err)
		}
	}
	return nil
}
