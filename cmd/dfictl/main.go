// Command dfictl manages a running dfid through its admin API.
//
// Usage:
//
//	dfictl [-admin http://127.0.0.1:8181] rules
//	dfictl policy show                  # running policy document
//	dfictl policy show -compiled        # lowered rules with provenance
//	dfictl policy validate corp.pol     # offline parse+compile check
//	dfictl policy diff corp.pol         # rule delta applying it would cause
//	dfictl policy apply -dry-run corp.pol
//	dfictl policy apply corp.pol        # atomic document replace
//	dfictl bind user-host alice alice-laptop
//	dfictl stats
//	dfictl metrics
//	dfictl slo              # service-level-objective verdicts
//	dfictl spans            # recent spans, admissions included
//	dfictl spans 42         # every span of trace 42
//	dfictl audit 50         # recent audit records
//	dfictl audit verify     # walk the on-disk hash chain
//
// Policy changes only through the policy document; rules is a read-only
// view of what it compiled to.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/dfi-sdn/dfi/internal/admin"
	"github.com/dfi-sdn/dfi/internal/policytext"
	"github.com/dfi-sdn/dfi/internal/policytext/compile"
	"github.com/dfi-sdn/dfi/internal/policytext/compile/verify"
)

func main() {
	adminBase := flag.String("admin", "http://127.0.0.1:8181", "dfid admin API base URL")
	flag.Parse()
	if err := run(admin.NewClient(*adminBase), flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dfictl:", err)
		os.Exit(1)
	}
}

func run(client *admin.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dfictl policy|rules|bind|switches|flows|stats|metrics|slo|spans|audit")
	}
	switch args[0] {
	case "rules":
		rules, err := client.Rules()
		if err != nil {
			return err
		}
		if len(rules) == 0 {
			fmt.Println("no rules (default deny)")
			return nil
		}
		for _, r := range rules {
			fmt.Printf("#%-5d p%-5d %-6s %-12s src=%s dst=%s\n",
				r.ID, r.Priority, r.Action, r.PDP, endpointString(r.Src), endpointString(r.Dst))
		}
		return nil

	case "bind", "unbind":
		return bindCmd(client, args)

	case "policy":
		return policyCmd(client, args[1:])

	case "apply":
		return fmt.Errorf("the apply command was replaced by the document workflow: dfictl policy apply <policy-file>")

	case "switches":
		dpids, err := client.Switches()
		if err != nil {
			return err
		}
		if len(dpids) == 0 {
			fmt.Println("no switches attached")
			return nil
		}
		for _, d := range dpids {
			fmt.Printf("%#x\n", d)
		}
		return nil

	case "flows":
		if len(args) != 2 {
			return fmt.Errorf("usage: dfictl flows <dpid>")
		}
		dpid, err := strconv.ParseUint(args[1], 0, 64)
		if err != nil {
			return fmt.Errorf("bad dpid %q: %w", args[1], err)
		}
		flows, err := client.Flows(dpid)
		if err != nil {
			return err
		}
		if len(flows) == 0 {
			fmt.Println("no flows")
			return nil
		}
		for _, f := range flows {
			fmt.Printf("table=%d prio=%-5d cookie=%-6d %-6s pkts=%-8d %s\n",
				f.TableID, f.Priority, f.Cookie, f.Action, f.Packets, f.Match)
		}
		return nil

	case "stats":
		stats, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("rules:            %d\n", stats.Rules)
		fmt.Printf("proxy packet-ins: %d (denied %d, dropped %d, forwarded %d)\n",
			stats.ProxyPacketIns, stats.ProxyDenied, stats.ProxyDropped, stats.ProxyForwarded)
		fmt.Printf("pcp processed:    %d (allowed %d, denied %d, queue drops %d)\n",
			stats.PCPProcessed, stats.PCPAllowed, stats.PCPDenied, stats.PCPDropped)
		fmt.Printf("decision cache:   %d hits, %d misses (%d stale)\n",
			stats.PCPCacheHits, stats.PCPCacheMisses, stats.PCPCacheStale)
		fmt.Printf("latency:          %.2fms total (binding %.2fms, policy %.2fms)\n",
			stats.MeanLatencyMs, stats.BindingQueryMs, stats.PolicyQueryMs)
		return nil

	case "metrics":
		text, err := client.Metrics()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil

	case "slo":
		if len(args) > 1 {
			return fmt.Errorf("usage: dfictl slo")
		}
		rep, err := client.SLO()
		if err != nil {
			return err
		}
		if len(rep.Statuses) == 0 {
			fmt.Println("no objectives configured")
			return nil
		}
		health := "HEALTHY"
		if !rep.Healthy {
			health = "VIOLATED"
		}
		fmt.Printf("slo %s (%d objective(s), evaluated %s)\n",
			health, len(rep.Statuses), rep.Evaluated.Format(time.RFC3339))
		for _, st := range rep.Statuses {
			verdict := "ok"
			if !st.OK {
				verdict = "VIOLATED"
			}
			line := fmt.Sprintf("%-16s %-8s %-10s value=%-12g max=%-12g burn=%.2f window=%s",
				st.Name, verdict, st.Kind, st.Value, st.Threshold, st.Burn, st.Window)
			if st.Kind == "quantile" {
				line += fmt.Sprintf(" q=%g", st.Quantile)
			}
			if st.Breaches > 0 {
				line += fmt.Sprintf(" breaches=%d", st.Breaches)
			}
			if st.Since != "" {
				line += " since=" + st.Since
			}
			fmt.Println(line + "  " + st.Metric)
		}
		if !rep.Healthy {
			return errors.New("slo: one or more objectives violated")
		}
		return nil

	case "spans":
		if len(args) > 2 {
			return fmt.Errorf("usage: dfictl spans [trace-id]")
		}
		var (
			spans []admin.SpanJSON
			err   error
		)
		if len(args) == 2 {
			trace, perr := strconv.ParseUint(args[1], 10, 64)
			if perr != nil || trace == 0 {
				return fmt.Errorf("bad trace id %q", args[1])
			}
			spans, err = client.Spans(trace)
		} else {
			spans, err = client.RecentSpans(40)
		}
		if err != nil {
			return err
		}
		if len(spans) == 0 {
			fmt.Println("no spans recorded")
			return nil
		}
		for _, sp := range spans {
			line := fmt.Sprintf("trace=%-6d #%-6d parent=%-6d %-7s %-15s %9.1fus",
				sp.Trace, sp.ID, sp.Parent, sp.Component, sp.Stage, sp.DurationUs)
			if sp.DPID != 0 {
				line += fmt.Sprintf(" sw=%#x", sp.DPID)
			}
			if sp.InPort != 0 {
				line += fmt.Sprintf(" in=%d", sp.InPort)
			}
			if sp.RuleID != 0 {
				line += fmt.Sprintf(" rule=%d", sp.RuleID)
			}
			if sp.Detail != "" {
				line += "  " + sp.Detail
			}
			if sp.Flow != "" {
				line += "  " + sp.Flow
			}
			if sp.Err != "" {
				line += "  err=" + sp.Err
			}
			fmt.Println(line)
		}
		return nil

	case "audit":
		if len(args) == 2 && args[1] == "verify" {
			v, err := client.AuditVerify()
			if err != nil {
				return err
			}
			if !v.OK {
				return fmt.Errorf("audit chain FAILED after %d records: %s", v.Records, v.Error)
			}
			fmt.Printf("audit chain OK: %d records across %d file(s), head %.12s…\n",
				v.Records, len(v.Files), v.Head)
			return nil
		}
		n := 20
		if len(args) > 2 {
			return fmt.Errorf("usage: dfictl audit [n|verify]")
		}
		if len(args) == 2 {
			var err error
			if n, err = strconv.Atoi(args[1]); err != nil || n < 1 {
				return fmt.Errorf("bad audit count %q", args[1])
			}
		}
		recs, err := client.Audit(n)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			fmt.Println("no audit records")
			return nil
		}
		for _, r := range recs {
			line := fmt.Sprintf("#%-6d %s %-8s %-10s", r.Seq, r.Time, r.Kind, r.Op)
			if r.RuleID != 0 {
				line += fmt.Sprintf(" rule=%d", r.RuleID)
			}
			if r.PDP != "" {
				line += " pdp=" + r.PDP
			}
			if r.Flow != "" {
				line += "  " + r.Flow
			}
			if r.CacheHit {
				line += " [cache-hit]"
			}
			if r.Detail != "" {
				line += "  " + r.Detail
			}
			fmt.Println(line)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// policyCmd implements the declarative document workflow: show the
// running document, validate/diff a proposed file and apply it atomically.
func policyCmd(client *admin.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dfictl policy show|apply|diff|validate")
	}
	switch args[0] {
	case "show":
		if len(args) == 2 && args[1] == "-compiled" {
			compiled, err := client.CompiledPolicy()
			if err != nil {
				return err
			}
			if len(compiled) == 0 {
				fmt.Println("no compiled rules (empty policy document)")
				return nil
			}
			for _, cr := range compiled {
				fmt.Printf("#%-5d p%-5d %-6s %-12s src=%s dst=%s  <- %s\n",
					cr.ID, cr.Priority, cr.Action, cr.PDP,
					endpointString(cr.Src), endpointString(cr.Dst), cr.Origin)
			}
			return nil
		}
		if len(args) != 1 {
			return fmt.Errorf("usage: dfictl policy show [-compiled]")
		}
		src, err := client.Policy()
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil

	case "apply":
		fs := flag.NewFlagSet("policy apply", flag.ContinueOnError)
		dryRun := fs.Bool("dry-run", false, "validate and print the rule delta without applying")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: dfictl policy apply [-dry-run] <policy-file>")
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		delta, err := client.ApplyPolicy(string(src), *dryRun)
		if err != nil {
			return err
		}
		printDelta(delta)
		if *dryRun {
			fmt.Println("dry run: nothing applied")
		} else {
			fmt.Printf("applied %s: %d rule(s) inserted, %d revoked\n",
				fs.Arg(0), len(delta.Insert), len(delta.Revoke))
		}
		return nil

	case "diff":
		if len(args) != 2 {
			return fmt.Errorf("usage: dfictl policy diff <policy-file>")
		}
		src, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		delta, err := client.DiffPolicy(string(src))
		if err != nil {
			return err
		}
		printDelta(delta)
		return nil

	case "validate":
		fs := flag.NewFlagSet("policy validate", flag.ContinueOnError)
		lint := fs.Bool("lint", false, "also run the policy verifier; error-severity findings fail validation")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("usage: dfictl policy validate [-lint] <policy-file>")
		}
		doc, err := validatePolicyFile(fs.Arg(0))
		if err != nil || !*lint {
			return err
		}
		return lintDoc(fs.Arg(0), doc)

	case "lint":
		if len(args) < 2 {
			return fmt.Errorf("usage: dfictl policy lint <policy-file>...")
		}
		var failed []string
		for _, path := range args[1:] {
			doc, err := validatePolicyFile(path)
			if err == nil {
				err = lintDoc(path, doc)
			}
			if err != nil {
				failed = append(failed, path)
			}
		}
		if len(failed) > 0 {
			return fmt.Errorf("lint failed: %s", strings.Join(failed, ", "))
		}
		return nil

	default:
		return fmt.Errorf("unknown policy subcommand %q (want show|apply|diff|validate|lint)", args[0])
	}
}

// lintDoc runs the policy verifier over an already-compiled document and
// prints dfilint-style diagnostics. Warnings print and pass; any
// error-severity finding fails.
func lintDoc(path string, doc *policytext.Document) error {
	nerr := 0
	for _, f := range verify.Document(doc) {
		fmt.Fprintf(os.Stderr, "%s:%d: [%s] %s: %s\n", path, f.Line, f.Check, f.Severity, f.Message)
		if f.Severity == verify.SevError {
			nerr++
		}
	}
	if nerr > 0 {
		return fmt.Errorf("%s: %d error-severity finding(s)", path, nerr)
	}
	return nil
}

// validatePolicyFile parses and compiles a policy file locally, printing
// every error (with its 1-based line number) rather than stopping at the
// first. On success it returns the parsed document for further analysis.
func validatePolicyFile(path string) (*policytext.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	doc, err := policytext.Parse(f)
	f.Close()
	if err == nil {
		_, err = compile.Lower(doc, time.Now())
	}
	if err != nil {
		for _, pe := range policytext.AsErrorList(err) {
			fmt.Fprintf(os.Stderr, "%s:%d: %s\n", path, pe.Line, pe.Msg)
		}
		return nil, fmt.Errorf("%s: %d error(s)", path, len(policytext.AsErrorList(err)))
	}
	stmts := len(doc.Rules)
	fmt.Printf("%s: ok (%d pdp(s), %d group(s), %d role(s), %d template(s), %d rule statement(s))\n",
		path, len(doc.PDPs), len(doc.Groups), len(doc.Roles), len(doc.Templates), stmts)
	return doc, nil
}

func printDelta(d admin.PolicyDeltaJSON) {
	if len(d.Insert) == 0 && len(d.Revoke) == 0 {
		fmt.Println("no rule changes")
	}
	for _, r := range d.Revoke {
		fmt.Printf("- %s\n", deltaRuleString(r))
	}
	for _, r := range d.Insert {
		fmt.Printf("+ %s\n", deltaRuleString(r))
	}
	for _, f := range d.Findings {
		fmt.Printf("! line %d: [%s] %s: %s\n", f.Line, f.Check, f.Severity, f.Message)
	}
	for _, w := range d.Widening {
		fmt.Printf("~ line %d: allow-set widening: %s (%s)\n", w.Line, w.Rule, w.Message)
	}
}

func deltaRuleString(r admin.RuleJSON) string {
	s := fmt.Sprintf("%-6s %-12s src=%s dst=%s", r.Action, r.PDP, endpointString(r.Src), endpointString(r.Dst))
	if r.ID != 0 {
		s = fmt.Sprintf("#%-5d %s", r.ID, s)
	}
	if r.Origin != "" {
		s += "  <- " + r.Origin
	}
	return s
}

func bindCmd(client *admin.Client, args []string) error {
	remove := args[0] == "unbind"
	if len(args) != 4 {
		return fmt.Errorf("usage: dfictl %s user-host|host-ip|ip-mac <a> <b>", args[0])
	}
	b := admin.BindingJSON{Kind: args[1], Remove: remove}
	switch args[1] {
	case "user-host":
		b.User, b.Host = args[2], args[3]
	case "host-ip":
		b.Host, b.IP = args[2], args[3]
	case "ip-mac":
		b.IP, b.MAC = args[2], args[3]
	default:
		return fmt.Errorf("unknown binding kind %q", args[1])
	}
	return client.AddBinding(b)
}

func endpointString(e admin.EndpointJSON) string {
	s := "("
	for _, f := range []string{e.User, e.Host, e.IP, e.MAC} {
		if f == "" {
			f = "*"
		}
		s += f + ","
	}
	if e.Port != nil {
		s += fmt.Sprintf("%d)", *e.Port)
	} else {
		s += "*)"
	}
	return s
}
