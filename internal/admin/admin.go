// Package admin provides the HTTP/JSON administrative API for a running
// DFI control plane: reading and replacing the policy document, inspecting
// the rules it compiled to, adding identifier bindings and reading
// statistics, spans and audit records. cmd/dfid serves it; cmd/dfictl is
// its client.
package admin

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
	"github.com/dfi-sdn/dfi/internal/obs"
	"github.com/dfi-sdn/dfi/internal/openflow"
)

// ErrorJSON is the uniform error envelope every non-2xx response carries.
type ErrorJSON struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's payload: a stable machine-readable code and
// a human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Lines carries the 1-based source line numbers of policy-document
	// parse/compile failures (validation_failed responses from the
	// /v1/policy endpoints); empty elsewhere.
	Lines []int `json:"lines,omitempty"`
}

// Error codes used in the envelope.
const (
	CodeBadRequest       = "bad_request"        // malformed request (unparseable JSON)
	CodeValidation       = "validation_failed"  // well-formed but semantically invalid
	CodeNotFound         = "not_found"          // unknown id or endpoint
	CodeMethodNotAllowed = "method_not_allowed" // endpoint exists, method does not
	CodeBadGateway       = "bad_gateway"        // a switch query failed
)

// RuleJSON is the wire form of a policy rule. Empty/absent fields are
// wildcards.
type RuleJSON struct {
	ID       uint64       `json:"id,omitempty"`
	PDP      string       `json:"pdp"`
	Priority int          `json:"priority,omitempty"`
	Action   string       `json:"action"` // "allow" | "deny"
	Props    PropsJSON    `json:"props,omitempty"`
	Src      EndpointJSON `json:"src,omitempty"`
	Dst      EndpointJSON `json:"dst,omitempty"`
	// Origin is the rule's provenance tag (set for rules compiled from a
	// policy document, e.g. "line 4" or "template quarantine(h7)").
	Origin string `json:"origin,omitempty"`
}

// PropsJSON is the wire form of flow properties.
type PropsJSON struct {
	EtherType *uint16 `json:"etherType,omitempty"`
	IPProto   *uint8  `json:"ipProto,omitempty"`
}

// EndpointJSON is the wire form of an endpoint spec.
type EndpointJSON struct {
	User       string  `json:"user,omitempty"`
	Host       string  `json:"host,omitempty"`
	IP         string  `json:"ip,omitempty"`
	Port       *uint16 `json:"port,omitempty"`
	MAC        string  `json:"mac,omitempty"`
	SwitchPort *uint32 `json:"switchPort,omitempty"`
	DPID       *uint64 `json:"dpid,omitempty"`
}

// FlowJSON is the wire form of one installed flow rule read back from a
// switch's tables.
type FlowJSON struct {
	TableID     uint8  `json:"tableId"`
	Priority    uint16 `json:"priority"`
	Cookie      uint64 `json:"cookie"`
	Match       string `json:"match"`
	Packets     uint64 `json:"packets"`
	Bytes       uint64 `json:"bytes"`
	DurationSec uint32 `json:"durationSec"`
	IdleTimeout uint16 `json:"idleTimeoutSec"`
	Action      string `json:"action"` // "allow" (goto) | "deny" (drop) | "other"
}

// HealthJSON is the /v1/healthz body.
type HealthJSON struct {
	Status   string `json:"status"`
	Switches int    `json:"switches"`
	Rules    int    `json:"rules"`
}

// SpanJSON is the wire form of one causal span. Durations are
// microseconds, matching the paper's Table II units. InPort and Flow are
// set on admission roots: the packet's ingress port and its identifiers.
type SpanJSON struct {
	Seq        uint64  `json:"seq"`
	Trace      uint64  `json:"trace"`
	ID         uint64  `json:"id"`
	Parent     uint64  `json:"parent,omitempty"`
	Component  string  `json:"component"`
	Stage      string  `json:"stage"`
	Start      string  `json:"start"`
	DurationUs float64 `json:"durationUs"`
	DPID       uint64  `json:"dpid,omitempty"`
	RuleID     uint64  `json:"ruleId,omitempty"`
	InPort     uint32  `json:"inPort,omitempty"`
	Flow       string  `json:"flow,omitempty"`
	Detail     string  `json:"detail,omitempty"`
	Err        string  `json:"err,omitempty"`
}

func fromSpan(sp obs.Span) SpanJSON {
	j := SpanJSON{
		Seq:        sp.Seq,
		Trace:      uint64(sp.Trace),
		ID:         sp.ID,
		Parent:     sp.Parent,
		Component:  sp.Component,
		Stage:      sp.Stage,
		Start:      sp.Start.Format(time.RFC3339Nano),
		DurationUs: float64(sp.Duration) / 1e3,
		DPID:       sp.DPID,
		RuleID:     sp.RuleID,
		InPort:     sp.InPort,
		Detail:     sp.Detail,
		Err:        sp.Err,
	}
	if sp.Flow != (netpkt.FlowKey{}) {
		j.Flow = sp.Flow.String()
	}
	return j
}

// AuditVerifyJSON is the /v1/audit/verify body: the outcome of walking
// the on-disk hash chain end to end.
type AuditVerifyJSON struct {
	OK      bool     `json:"ok"`
	Records int      `json:"records"`
	Files   []string `json:"files"`
	Head    string   `json:"head,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// BindingJSON adds one identifier binding.
type BindingJSON struct {
	Kind string `json:"kind"` // "user-host" | "host-ip" | "ip-mac"
	User string `json:"user,omitempty"`
	Host string `json:"host,omitempty"`
	IP   string `json:"ip,omitempty"`
	MAC  string `json:"mac,omitempty"`
	// Remove unbinds instead of binding.
	Remove bool `json:"remove,omitempty"`
}

func fromRule(r policy.Rule) RuleJSON {
	j := RuleJSON{
		ID:       uint64(r.ID),
		PDP:      r.PDP,
		Priority: r.Priority,
		Props:    PropsJSON{EtherType: r.Props.EtherType, IPProto: r.Props.IPProto},
		Src:      fromEndpoint(r.Src),
		Dst:      fromEndpoint(r.Dst),
		Origin:   r.Origin,
	}
	if r.Action == policy.ActionAllow {
		j.Action = "allow"
	} else {
		j.Action = "deny"
	}
	return j
}

func fromEndpoint(e policy.EndpointSpec) EndpointJSON {
	j := EndpointJSON{
		User:       e.User,
		Host:       e.Host,
		Port:       e.Port,
		SwitchPort: e.SwitchPort,
		DPID:       e.DPID,
	}
	if e.IP != nil {
		j.IP = e.IP.String()
	}
	if e.MAC != nil {
		j.MAC = e.MAC.String()
	}
	return j
}

// HandlerOption configures optional admin API surfaces.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	pprof bool
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default:
// profiling endpoints expose internals and should be an explicit
// operator choice (dfid's -pprof flag).
func WithPprof() HandlerOption {
	return func(c *handlerConfig) { c.pprof = true }
}

// Handler serves the admin API for sys. Every route lives under the
// versioned /v1/ prefix, and policy changes only through the /v1/policy
// document. All error responses — including the mux's own 404s and 405s —
// carry the ErrorJSON envelope.
func Handler(sys *dfi.System, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, o := range opts {
		o(&cfg)
	}
	mux := http.NewServeMux()

	registerPolicy(mux, sys)

	// A read-only view of every manager rule: the document's compiled rules
	// plus those in-process PDPs inserted through System.Policy.
	mux.HandleFunc("GET /v1/rules", func(w http.ResponseWriter, _ *http.Request) {
		rules := sys.Policy().Rules()
		out := make([]RuleJSON, 0, len(rules))
		for _, r := range rules {
			out = append(out, fromRule(r))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /v1/bindings", func(w http.ResponseWriter, r *http.Request) {
		var j BindingJSON
		if err := json.NewDecoder(r.Body).Decode(&j); err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		if err := applyBinding(sys, j); err != nil {
			httpError(w, http.StatusUnprocessableEntity, CodeValidation, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/switches", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, sys.PCP().Switches())
	})

	mux.HandleFunc("GET /v1/flows/{dpid}", func(w http.ResponseWriter, r *http.Request) {
		dpid, err := strconv.ParseUint(r.PathValue("dpid"), 0, 64)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, CodeValidation, err)
			return
		}
		tableID := openflow.AllTables
		if tq := r.URL.Query().Get("table"); tq != "" {
			tv, err := strconv.ParseUint(tq, 10, 8)
			if err != nil {
				httpError(w, http.StatusUnprocessableEntity, CodeValidation, err)
				return
			}
			tableID = uint8(tv)
		}
		flows, err := sys.PCP().ReadFlows(dpid, &openflow.FlowStatsRequest{
			TableID:  tableID,
			OutPort:  openflow.PortAny,
			OutGroup: 0xffffffff,
			Match:    &openflow.Match{},
		})
		if err != nil {
			httpError(w, http.StatusBadGateway, CodeBadGateway, err)
			return
		}
		out := make([]FlowJSON, 0, len(flows))
		for _, f := range flows {
			out = append(out, fromFlowStats(f))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = sys.Metrics().WritePrometheus(w)
	})

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, HealthJSON{
			Status:   "ok",
			Switches: len(sys.PCP().Switches()),
			Rules:    sys.Policy().Len(),
		})
	})

	mux.HandleFunc("GET /v1/spans", func(w http.ResponseWriter, r *http.Request) {
		spans := sys.Spans()
		var got []obs.Span
		if tq := r.URL.Query().Get("trace"); tq != "" {
			id, err := strconv.ParseUint(tq, 10, 64)
			if err != nil || id == 0 {
				httpError(w, http.StatusUnprocessableEntity, CodeValidation,
					fmt.Errorf("admin: bad trace id %q", tq))
				return
			}
			got = spans.ByTrace(obs.TraceID(id))
		} else {
			n := 64
			if nq := r.URL.Query().Get("n"); nq != "" {
				nv, err := strconv.Atoi(nq)
				if err != nil || nv < 1 {
					httpError(w, http.StatusUnprocessableEntity, CodeValidation,
						fmt.Errorf("admin: bad span count %q", nq))
					return
				}
				n = nv
			}
			got = spans.Last(n)
		}
		out := make([]SpanJSON, 0, len(got))
		for _, sp := range got {
			out = append(out, fromSpan(sp))
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/slo", func(w http.ResponseWriter, _ *http.Request) {
		engine := sys.SLO()
		if engine == nil {
			httpError(w, http.StatusNotFound, CodeNotFound,
				errors.New("admin: slo engine disabled"))
			return
		}
		writeJSON(w, http.StatusOK, engine.Evaluate())
	})

	mux.HandleFunc("GET /v1/audit", func(w http.ResponseWriter, r *http.Request) {
		audit := sys.Audit()
		if audit == nil {
			httpError(w, http.StatusNotFound, CodeNotFound,
				errors.New("admin: audit log disabled"))
			return
		}
		n := 64
		if nq := r.URL.Query().Get("n"); nq != "" {
			nv, err := strconv.Atoi(nq)
			if err != nil || nv < 1 {
				httpError(w, http.StatusUnprocessableEntity, CodeValidation,
					fmt.Errorf("admin: bad audit count %q", nq))
				return
			}
			n = nv
		}
		recs := audit.Last(n)
		if recs == nil {
			recs = []obs.AuditRecord{}
		}
		writeJSON(w, http.StatusOK, recs)
	})

	mux.HandleFunc("GET /v1/audit/verify", func(w http.ResponseWriter, _ *http.Request) {
		audit := sys.Audit()
		if audit == nil {
			httpError(w, http.StatusNotFound, CodeNotFound,
				errors.New("admin: audit log disabled"))
			return
		}
		out := AuditVerifyJSON{Files: audit.Files(), Head: audit.Head()}
		n, err := audit.Verify()
		out.Records = n
		if err != nil {
			out.Error = err.Error()
		} else {
			out.OK = true
		}
		writeJSON(w, http.StatusOK, out)
	})

	if cfg.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	return envelopeErrors(mux)
}

// envelopeErrors wraps the mux so its built-in plain-text 404 and 405
// responses are rewritten into the JSON error envelope. Handlers that
// produce their own 404s are untouched: they write JSON before the status.
func envelopeErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	// intercepted marks that the envelope replaced the handler's body.
	intercepted bool
	wroteHeader bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.intercepted = true
		body := ErrorJSON{Error: ErrorBody{Code: CodeNotFound, Message: "no such endpoint"}}
		if code == http.StatusMethodNotAllowed {
			body.Error = ErrorBody{Code: CodeMethodNotAllowed, Message: "method not allowed"}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(code)
		_ = json.NewEncoder(w.ResponseWriter).Encode(body)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercepted {
		// Swallow the mux's plain-text body; the envelope is already out.
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

func fromFlowStats(f *openflow.FlowStatsEntry) FlowJSON {
	j := FlowJSON{
		TableID:     f.TableID,
		Priority:    f.Priority,
		Cookie:      f.Cookie,
		Match:       f.Match.String(),
		Packets:     f.PacketCount,
		Bytes:       f.ByteCount,
		DurationSec: f.DurationSec,
		IdleTimeout: f.IdleTimeout,
		Action:      "deny",
	}
	if len(f.Instructions) > 0 {
		j.Action = "other"
		for _, in := range f.Instructions {
			if _, ok := in.(*openflow.InstructionGotoTable); ok {
				j.Action = "allow"
			}
		}
	}
	return j
}

func applyBinding(sys *dfi.System, j BindingJSON) error {
	erm := sys.Entity()
	switch j.Kind {
	case "user-host":
		if j.User == "" || j.Host == "" {
			return fmt.Errorf("admin: user-host binding needs user and host")
		}
		if j.Remove {
			erm.UnbindUserHost(j.User, j.Host)
		} else {
			erm.BindUserHost(j.User, j.Host)
		}
	case "host-ip":
		if j.Host == "" || j.IP == "" {
			return fmt.Errorf("admin: host-ip binding needs host and ip")
		}
		ip, err := netpkt.ParseIPv4(j.IP)
		if err != nil {
			return err
		}
		if j.Remove {
			erm.UnbindHostIP(j.Host, ip)
		} else {
			erm.BindHostIP(j.Host, ip)
		}
	case "ip-mac":
		if j.IP == "" || j.MAC == "" {
			return fmt.Errorf("admin: ip-mac binding needs ip and mac")
		}
		ip, err := netpkt.ParseIPv4(j.IP)
		if err != nil {
			return err
		}
		mac, err := netpkt.ParseMAC(j.MAC)
		if err != nil {
			return err
		}
		if j.Remove {
			erm.UnbindIPMAC(ip, mac)
		} else {
			erm.BindIPMAC(ip, mac)
		}
	default:
		return fmt.Errorf("admin: unknown binding kind %q", j.Kind)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorJSON{Error: ErrorBody{Code: code, Message: err.Error()}})
}
