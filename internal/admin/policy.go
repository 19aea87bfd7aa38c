package admin

import (
	"encoding/json"
	"net/http"
	"strings"

	dfi "github.com/dfi-sdn/dfi"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/policytext/compile/verify"
)

// PolicyDocJSON carries a policy document in the policytext language.
// GET /v1/policy returns the running document in canonical form
// (including runtime group-membership changes); PUT /v1/policy applies a
// new one atomically.
type PolicyDocJSON struct {
	Source string `json:"source"`
}

// PolicyDeltaJSON is the rule delta a document apply produced — or, for
// a dry run or POST /v1/policy/diff, would produce. Inserted rules carry
// assigned IDs only when the apply was real. Findings are the policy
// verifier's diagnostics over the proposed document (a dry run reports
// error-severity findings here; a real apply can only carry warnings,
// since errors reject with 422); Widening is the allow-set growth versus
// the currently-running document.
type PolicyDeltaJSON struct {
	DryRun   bool              `json:"dryRun,omitempty"`
	Insert   []RuleJSON        `json:"insert"`
	Revoke   []RuleJSON        `json:"revoke"`
	Findings []verify.Finding  `json:"findings,omitempty"`
	Widening []verify.Widening `json:"widening,omitempty"`
}

// ProvenanceJSON records where a compiled rule came from in the source
// document. Line is 1-based.
type ProvenanceJSON struct {
	Line     int    `json:"line"`
	Stmt     string `json:"stmt"`
	Template string `json:"template,omitempty"`
	Via      string `json:"via,omitempty"`
}

// CompiledRuleJSON is one lowered rule with provenance, served by
// GET /v1/policy/compiled.
type CompiledRuleJSON struct {
	RuleJSON
	Provenance ProvenanceJSON `json:"provenance"`
}

// registerPolicy mounts the policy-document endpoints, the admin API's only
// write path for policy: they operate on whole documents and return rule
// deltas.
func registerPolicy(mux *http.ServeMux, sys *dfi.System) {
	eng := sys.PolicyEngine()

	mux.HandleFunc("GET /v1/policy", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, PolicyDocJSON{Source: eng.Source()})
	})

	mux.HandleFunc("PUT /v1/policy", func(w http.ResponseWriter, r *http.Request) {
		var j PolicyDocJSON
		if err := json.NewDecoder(r.Body).Decode(&j); err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		dry := isDryRun(r)
		prevSrc := eng.Source()
		var (
			d   compile.Delta
			err error
		)
		if dry {
			d, err = eng.Diff(j.Source)
		} else {
			d, err = eng.SetSource(j.Source)
		}
		if err != nil {
			httpPolicyError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, annotate(fromDelta(d, dry), prevSrc, j.Source))
	})

	mux.HandleFunc("POST /v1/policy/diff", func(w http.ResponseWriter, r *http.Request) {
		var j PolicyDocJSON
		if err := json.NewDecoder(r.Body).Decode(&j); err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		prevSrc := eng.Source()
		d, err := eng.Diff(j.Source)
		if err != nil {
			httpPolicyError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, annotate(fromDelta(d, true), prevSrc, j.Source))
	})

	mux.HandleFunc("GET /v1/policy/compiled", func(w http.ResponseWriter, _ *http.Request) {
		compiled := eng.Compiled()
		out := make([]CompiledRuleJSON, 0, len(compiled))
		for _, cr := range compiled {
			out = append(out, CompiledRuleJSON{
				RuleJSON: fromRule(cr.Rule),
				Provenance: ProvenanceJSON{
					Line:     cr.Prov.Line,
					Stmt:     cr.Prov.Stmt,
					Template: cr.Prov.Template,
					Via:      cr.Prov.Via,
				},
			})
		}
		writeJSON(w, http.StatusOK, out)
	})
}

func isDryRun(r *http.Request) bool {
	switch r.URL.Query().Get("dryRun") {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

// annotate attaches the verifier's findings for the proposed document and
// the allow-set widening versus the previously-running one. The delta
// itself already compiled, so parse failures here are impossible; the
// guards keep the endpoint total anyway.
func annotate(out PolicyDeltaJSON, prevSrc, nextSrc string) PolicyDeltaJSON {
	next, err := policytext.Parse(strings.NewReader(nextSrc))
	if err != nil {
		return out
	}
	out.Findings = verify.Document(next)
	if prev, err := policytext.Parse(strings.NewReader(prevSrc)); err == nil {
		out.Widening = verify.VerifyTransition(prev, next)
	}
	return out
}

func fromDelta(d compile.Delta, dry bool) PolicyDeltaJSON {
	out := PolicyDeltaJSON{DryRun: dry, Insert: []RuleJSON{}, Revoke: []RuleJSON{}}
	for _, r := range d.Insert {
		out.Insert = append(out.Insert, fromRule(r))
	}
	for _, r := range d.Revoke {
		out.Revoke = append(out.Revoke, fromRule(r))
	}
	return out
}

// httpPolicyError maps a parse/compile failure to the uniform 422
// envelope, carrying each error's 1-based source line in lines.
func httpPolicyError(w http.ResponseWriter, err error) {
	list := policytext.AsErrorList(err)
	var lines []int
	for _, l := range list.Lines() {
		if l > 0 {
			lines = append(lines, l)
		}
	}
	writeJSON(w, http.StatusUnprocessableEntity, ErrorJSON{Error: ErrorBody{
		Code:    CodeValidation,
		Message: err.Error(),
		Lines:   lines,
	}})
}
