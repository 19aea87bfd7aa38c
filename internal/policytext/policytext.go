// Package policytext implements DFI's human-readable policy language.
// The paper's first design requirement for policy (§III-A) is that rules
// be written over identifiers administrators understand; this package
// gives dfid a loadable, diffable on-disk form of such policy — not just
// flat allow/deny tuples but the vocabulary operators actually use:
// groups, roles, time windows and parameterized templates, transformed at
// runtime into the flat rule model by internal/policytext/compile.
//
// Grammar ('#' starts a comment; statements are newline-separated, block
// members may also be separated with ';'):
//
//	pdp <name> priority <n>
//	group <name> { <member> ... }        # member: endpoint fields | group <name>
//	role <name> { <endpoint fields> }
//	template <name>(<p1>[, <p2>...]) { <rule> ... }
//	allow|deny [proto tcp|udp|icmp|arp|ip] [from <endpoint>] [to <endpoint>]
//	           [between HH:MM-HH:MM] [days <spec>]
//
// where <endpoint> is one or more of:
//
//	user <name> | host <name> | ip <a.b.c.d> | port <n> | mac <xx:..:xx>
//	| switchport <n> | dpid <n> | group <name> | role <name>
//
// and a days <spec> is a day range or comma list (days mon-fri,
// days sat,sun). Rules and templates are attributed to the most recently
// declared pdp; groups and roles are global. Template bodies are rule
// statements whose $param placeholders are substituted at instantiation
// (e.g. from a sensor event). Examples:
//
//	pdp corp priority 50
//	group eng { user alice; user bob; group contractors }
//	role mail { host mailserver port 143 }
//	template quarantine(h) { deny from host $h }
//	# Engineering may reach IMAP during business hours.
//	allow proto tcp from group eng to role mail between 09:00-17:00 days mon-fri
//	deny from host lobby-kiosk
package policytext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/dfi-sdn/dfi/internal/core/policy"
	"github.com/dfi-sdn/dfi/internal/netpkt"
)

// PDPDecl is one "pdp" statement.
type PDPDecl struct {
	Name     string
	Priority int
	Line     int
}

// Member is one entry of a group: either a literal endpoint fragment
// (Spec) or a reference to another group (Group != "").
type Member struct {
	Spec  policy.EndpointSpec
	Group string
	Line  int
}

// String renders the member in group-block syntax; it is also the
// member's canonical identity for membership add/remove events.
func (m Member) String() string {
	if m.Group != "" {
		return "group " + m.Group
	}
	var b strings.Builder
	writeEndpoint(&b, "", m.Spec)
	return strings.TrimSpace(b.String())
}

// GroupDecl is one "group" block.
type GroupDecl struct {
	Name    string
	Members []Member
	Line    int
}

// RoleDecl is one "role" block: a named endpoint spec usable anywhere an
// endpoint appears.
type RoleDecl struct {
	Name string
	Spec policy.EndpointSpec
	Line int
}

// TemplateDecl is one "template" block. The body is kept as raw token
// lines: $param placeholders are substituted and the lines parsed as rule
// statements at instantiation time.
type TemplateDecl struct {
	Name   string
	Params []string
	// PDP captures the pdp context the template was declared under;
	// instantiated rules are attributed to it.
	PDP  string
	Body []TemplateLine
	Line int
}

// TemplateLine is one raw rule statement of a template body.
type TemplateLine struct {
	Tokens []string
	Line   int
}

// EndpointRef is one end of a rule statement: literal endpoint fields
// plus at most one group or role reference.
type EndpointRef struct {
	Spec  policy.EndpointSpec
	Group string
	Role  string
}

// IsZero reports a fully wildcarded endpoint reference.
func (e EndpointRef) IsZero() bool {
	return e.Group == "" && e.Role == "" && e.Spec == (policy.EndpointSpec{})
}

// Window is a rule's temporal constraint: a clock interval (between) and
// a day-of-week set (days). The zero Window is always active.
type Window struct {
	// HasTime gates StartMin/EndMin (minutes since midnight). A window
	// whose StartMin exceeds EndMin wraps midnight (between 22:00-06:00).
	HasTime  bool
	StartMin int
	EndMin   int
	// Days is a day-of-week bitmask indexed by time.Weekday
	// (bit 0 = Sunday); 0 means every day.
	Days uint8
}

// IsZero reports an unconstrained window.
func (w Window) IsZero() bool { return !w.HasTime && w.Days == 0 }

// Active reports whether the window is open at t (minute granularity,
// evaluated in t's location). The day constraint applies to the current
// day even for clock intervals that wrap midnight.
func (w Window) Active(t time.Time) bool {
	if w.Days != 0 && w.Days&(1<<uint(t.Weekday())) == 0 {
		return false
	}
	if !w.HasTime {
		return true
	}
	m := t.Hour()*60 + t.Minute()
	if w.StartMin <= w.EndMin {
		return m >= w.StartMin && m < w.EndMin
	}
	return m >= w.StartMin || m < w.EndMin
}

// NextTransition returns the earliest instant strictly after t at which
// Active changes value, or ok=false when the window never transitions
// (e.g. a pure day mask covering every day). Transitions happen only at
// day boundaries and the window's start/end minutes, so scanning those
// candidates over the next eight days is exhaustive.
func (w Window) NextTransition(t time.Time) (at time.Time, ok bool) {
	was := w.Active(t)
	var candidates []time.Time
	for d := 0; d <= 8; d++ {
		day := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location()).AddDate(0, 0, d)
		candidates = append(candidates, day)
		if w.HasTime {
			candidates = append(candidates,
				day.Add(time.Duration(w.StartMin)*time.Minute),
				day.Add(time.Duration(w.EndMin)*time.Minute))
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Before(candidates[j]) })
	for _, c := range candidates {
		if c.After(t) && w.Active(c) != was {
			return c, true
		}
	}
	return time.Time{}, false
}

// String renders the window's rule-statement clauses ("" when zero).
func (w Window) String() string {
	var parts []string
	if w.HasTime {
		parts = append(parts, fmt.Sprintf("between %02d:%02d-%02d:%02d",
			w.StartMin/60, w.StartMin%60, w.EndMin/60, w.EndMin%60))
	}
	if w.Days != 0 {
		parts = append(parts, "days "+daysString(w.Days))
	}
	return strings.Join(parts, " ")
}

// RuleStmt is one allow/deny statement prior to lowering: endpoints may
// reference groups and roles, and a temporal window may gate the rule.
type RuleStmt struct {
	PDP    string
	Action policy.Action
	Props  policy.FlowProperties
	Src    EndpointRef
	Dst    EndpointRef
	Window Window
	Line   int
	// Text is the statement as written: its tokens joined by single
	// spaces. Two statements with equal Text (under one pdp) parse alike,
	// so the compile stage keys lowering reuse on it before falling back
	// to the canonical FormatStmt text.
	Text string
}

// Document is a parsed policy file.
type Document struct {
	PDPs      []PDPDecl
	Groups    []GroupDecl
	Roles     []RoleDecl
	Templates []TemplateDecl
	Rules     []RuleStmt
}

// Group returns the named group declaration.
func (d *Document) Group(name string) (GroupDecl, bool) {
	for _, g := range d.Groups {
		if g.Name == name {
			return g, true
		}
	}
	return GroupDecl{}, false
}

// Role returns the named role declaration.
func (d *Document) Role(name string) (RoleDecl, bool) {
	for _, r := range d.Roles {
		if r.Name == name {
			return r, true
		}
	}
	return RoleDecl{}, false
}

// Template returns the named template declaration.
func (d *Document) Template(name string) (TemplateDecl, bool) {
	for _, t := range d.Templates {
		if t.Name == name {
			return t, true
		}
	}
	return TemplateDecl{}, false
}

// ParseError reports a syntax or compile error with its line number.
// Line numbers are 1-based: the first line of the source is line 1,
// matching what editors and the dfictl validate output display.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("policy line %d: %s", e.Line, e.Msg)
}

// ErrorList collects every error found in a document, in line order.
// Parse reports all errors it can recover to — not just the first — so
// one validate run surfaces every broken statement.
type ErrorList []*ParseError

// Error implements error, joining the individual messages.
func (l ErrorList) Error() string {
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// Lines returns the (1-based) line numbers of the list's errors.
func (l ErrorList) Lines() []int {
	lines := make([]int, len(l))
	for i, e := range l {
		lines[i] = e.Line
	}
	return lines
}

// AsErrorList extracts the individual parse errors from an error returned
// by Parse (or the compile stage). A non-policy error becomes a
// single-element list with line 0.
func AsErrorList(err error) ErrorList {
	switch e := err.(type) {
	case nil:
		return nil
	case ErrorList:
		return e
	case *ParseError:
		return ErrorList{e}
	default:
		return ErrorList{{Line: 0, Msg: err.Error()}}
	}
}

func errf(line int, format string, args ...any) *ParseError {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// parser carries the per-document parse state: the current pdp context
// and the open block, if any.
type parser struct {
	doc  Document
	errs ErrorList

	currentPDP string
	pdpSeen    map[string]bool
	nameSeen   map[string]int // group/role/template name -> decl line

	// Open block state; kind is "" at top level.
	blockKind  string // "group" | "role" | "template"
	blockLine  int
	curGroup   GroupDecl
	curRole    RoleDecl // accumulated via roleTokens
	roleTokens []string
	curTmpl    TemplateDecl
}

// Parse reads a policy document, reporting every recoverable error it
// finds (the returned error is an ErrorList when parsing failed).
func Parse(r io.Reader) (*Document, error) {
	return ParseAgainst(r, nil)
}

// ParseAgainst parses a policy document as Parse does, taking from prev —
// the document the new one replaces, nil for none — every rule statement
// written on a line of its own exactly as prev holds it, so an edit costs
// what it changed rather than what the document holds. The result equals
// Parse's, errors included.
//
// The reuse is sound because a statement's Text is its tokens joined by
// single spaces: tokenize yields valid UTF-8 tokens holding no space, no
// '#' and no structural character other than a lone one, so re-tokenizing
// Text gives back the same tokens; and a top-level line (no block open) starting with
// allow or deny is one statement that ParseRuleStmt parses from its tokens
// alone. A line equal to some statement's Text therefore parses to that
// statement, on its own line and under the current pdp, and changes no
// other parser state. A statement of prev is shared, not copied: parsed
// documents are never written after parsing.
func ParseAgainst(r io.Reader, prev *Document) (*Document, error) {
	var known map[string]int // statement text -> index in prev.Rules
	if prev != nil && len(prev.Rules) > 0 {
		known = make(map[string]int, len(prev.Rules))
		for i := range prev.Rules {
			if _, dup := known[prev.Rules[i].Text]; !dup {
				known[prev.Rules[i].Text] = i
			}
		}
	}
	p := &parser{pdpSeen: map[string]bool{}, nameSeen: map[string]int{}}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		if p.blockKind == "" && p.currentPDP != "" {
			if i, ok := known[string(scanner.Bytes())]; ok {
				if p.doc.Rules == nil { // room for the statements prev holds, and a few more
					p.doc.Rules = make([]RuleStmt, 0, len(prev.Rules)+16)
				}
				stmt := prev.Rules[i]
				stmt.Line, stmt.PDP = lineNo, p.currentPDP
				p.doc.Rules = append(p.doc.Rules, stmt)
				continue
			}
		}
		p.line(lineNo, tokenize(scanner.Text()))
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("policy: read: %w", err)
	}
	if p.blockKind != "" {
		p.errs = append(p.errs, errf(p.blockLine, "unclosed %s block", p.blockKind))
	}
	if len(p.errs) > 0 {
		return nil, p.errs
	}
	return &p.doc, nil
}

// tokenize splits one source line into tokens, detaching the structural
// characters {}();, so "group eng {user alice; user bob}" and the spaced
// form scan identically.
func tokenize(line string) []string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	if !strings.ContainsAny(line, "{}();,") && utf8.ValidString(line) {
		return strings.Fields(line) // nothing to detach, nothing to re-encode
	}
	var b strings.Builder
	b.Grow(3 * len(line))
	for _, r := range line {
		switch r {
		case '{', '}', '(', ')', ';', ',':
			b.WriteByte(' ')
			b.WriteRune(r)
			b.WriteByte(' ')
		default:
			b.WriteRune(r)
		}
	}
	return strings.Fields(b.String())
}

// line consumes one line's tokens, dispatching on block state. Statement
// errors are recorded and the rest of the line skipped; block state is
// kept consistent so later lines still parse.
func (p *parser) line(lineNo int, tokens []string) {
	for len(tokens) > 0 {
		switch p.blockKind {
		case "group":
			tokens = p.groupTokens(lineNo, tokens)
		case "role":
			tokens = p.roleBlockTokens(lineNo, tokens)
		case "template":
			tokens = p.templateTokens(lineNo, tokens)
		default:
			tokens = p.topLevel(lineNo, tokens)
		}
	}
}

// fail records an error and discards the rest of the line.
func (p *parser) fail(err *ParseError) []string {
	p.errs = append(p.errs, err)
	return nil
}

func (p *parser) topLevel(lineNo int, tokens []string) []string {
	switch tokens[0] {
	case "pdp":
		// pdp <name> priority <n>
		if len(tokens) != 4 || tokens[2] != "priority" {
			return p.fail(errf(lineNo, "want: pdp <name> priority <n>"))
		}
		prio, err := strconv.Atoi(tokens[3])
		if err != nil {
			return p.fail(errf(lineNo, "bad priority %q", tokens[3]))
		}
		if p.pdpSeen[tokens[1]] {
			return p.fail(errf(lineNo, "pdp %q declared twice", tokens[1]))
		}
		p.pdpSeen[tokens[1]] = true
		p.doc.PDPs = append(p.doc.PDPs, PDPDecl{Name: tokens[1], Priority: prio, Line: lineNo})
		p.currentPDP = tokens[1]
		return nil

	case "group":
		if len(tokens) < 3 || tokens[2] != "{" {
			return p.fail(errf(lineNo, "want: group <name> { <members> }"))
		}
		if !p.declareName(lineNo, "group", tokens[1]) {
			return nil
		}
		p.blockKind, p.blockLine = "group", lineNo
		p.curGroup = GroupDecl{Name: tokens[1], Line: lineNo}
		return tokens[3:]

	case "role":
		if len(tokens) < 3 || tokens[2] != "{" {
			return p.fail(errf(lineNo, "want: role <name> { <endpoint fields> }"))
		}
		if !p.declareName(lineNo, "role", tokens[1]) {
			return nil
		}
		p.blockKind, p.blockLine = "role", lineNo
		p.curRole = RoleDecl{Name: tokens[1], Line: lineNo}
		p.roleTokens = nil
		return tokens[3:]

	case "template":
		return p.templateDecl(lineNo, tokens)

	case "allow", "deny":
		if p.currentPDP == "" {
			return p.fail(errf(lineNo, "%s before any pdp declaration", tokens[0]))
		}
		stmt, err := ParseRuleStmt(tokens, lineNo)
		if err != nil {
			return p.fail(err)
		}
		stmt.PDP = p.currentPDP
		p.doc.Rules = append(p.doc.Rules, stmt)
		return nil

	case "}":
		return p.fail(errf(lineNo, "unexpected %q outside a block", "}"))

	default:
		return p.fail(errf(lineNo, "unknown statement %q", tokens[0]))
	}
}

// declareName enforces one namespace across groups, roles and templates,
// so an endpoint reference is never ambiguous.
func (p *parser) declareName(lineNo int, kind, name string) bool {
	if prev, dup := p.nameSeen[name]; dup {
		p.errs = append(p.errs, errf(lineNo, "%s %q conflicts with declaration on line %d", kind, name, prev))
		return false
	}
	p.nameSeen[name] = lineNo
	return true
}

// templateDecl parses "template <name> ( p1 , p2 ) {".
func (p *parser) templateDecl(lineNo int, tokens []string) []string {
	rest := tokens[1:]
	if len(rest) < 2 || rest[1] != "(" {
		return p.fail(errf(lineNo, "want: template <name>(<params>) { <rules> }"))
	}
	name := rest[0]
	rest = rest[2:]
	var params []string
	for len(rest) > 0 && rest[0] != ")" {
		if rest[0] == "," {
			rest = rest[1:]
			continue
		}
		params = append(params, rest[0])
		rest = rest[1:]
	}
	if len(rest) == 0 || len(rest) < 2 || rest[1] != "{" {
		return p.fail(errf(lineNo, "want: template <name>(<params>) { <rules> }"))
	}
	if len(params) == 0 {
		return p.fail(errf(lineNo, "template %q has no parameters", name))
	}
	if p.currentPDP == "" {
		return p.fail(errf(lineNo, "template before any pdp declaration"))
	}
	if !p.declareName(lineNo, "template", name) {
		return nil
	}
	p.blockKind, p.blockLine = "template", lineNo
	p.curTmpl = TemplateDecl{Name: name, Params: params, PDP: p.currentPDP, Line: lineNo}
	return rest[2:]
}

// groupTokens consumes group members until ';', '}' or end of line.
func (p *parser) groupTokens(lineNo int, tokens []string) []string {
	switch tokens[0] {
	case ";":
		return tokens[1:]
	case "}":
		p.doc.Groups = append(p.doc.Groups, p.curGroup)
		p.blockKind = ""
		return tokens[1:]
	}
	// One member: "group <name>" or literal endpoint fields.
	end := len(tokens)
	for i, tok := range tokens {
		if tok == ";" || tok == "}" {
			end = i
			break
		}
	}
	member, err := parseMember(tokens[:end], lineNo)
	if err != nil {
		p.errs = append(p.errs, err)
	} else {
		p.curGroup.Members = append(p.curGroup.Members, member)
	}
	return tokens[end:]
}

// ParseMember parses one group-member declaration ("user alice",
// "group contractors", "host db ip 10.0.0.5") as membership events
// deliver them.
func ParseMember(text string) (Member, error) {
	tokens := tokenize(text)
	if len(tokens) == 0 {
		return Member{}, errf(0, "empty group member")
	}
	m, err := parseMember(tokens, 0)
	if err != nil {
		return Member{}, err
	}
	return m, nil
}

func parseMember(tokens []string, lineNo int) (Member, *ParseError) {
	if tokens[0] == "group" {
		if len(tokens) != 2 {
			return Member{}, errf(lineNo, "want: group <name>")
		}
		return Member{Group: tokens[1], Line: lineNo}, nil
	}
	spec, n, err := parseEndpoint(tokens, lineNo)
	if err != nil {
		return Member{}, err
	}
	if n != len(tokens) {
		return Member{}, errf(lineNo, "unexpected token %q in group member", tokens[n])
	}
	return Member{Spec: spec, Line: lineNo}, nil
}

// roleBlockTokens accumulates the role's endpoint fields until '}'.
func (p *parser) roleBlockTokens(lineNo int, tokens []string) []string {
	for i, tok := range tokens {
		if tok != "}" {
			continue
		}
		p.roleTokens = append(p.roleTokens, tokens[:i]...)
		spec, n, err := parseEndpoint(p.roleTokens, p.blockLine)
		switch {
		case err != nil:
			p.errs = append(p.errs, err)
		case n != len(p.roleTokens):
			p.errs = append(p.errs, errf(p.blockLine, "unexpected token %q in role %q", p.roleTokens[n], p.curRole.Name))
		default:
			p.curRole.Spec = spec
			p.doc.Roles = append(p.doc.Roles, p.curRole)
		}
		p.blockKind = ""
		return tokens[i+1:]
	}
	p.roleTokens = append(p.roleTokens, tokens...)
	return nil
}

// templateTokens consumes template-body rule lines until '}'. Bodies are
// stored raw (substituted and parsed at instantiation); only statement
// shape and parameter references are checked here.
func (p *parser) templateTokens(lineNo int, tokens []string) []string {
	if tokens[0] == "}" {
		p.doc.Templates = append(p.doc.Templates, p.curTmpl)
		p.blockKind = ""
		return tokens[1:]
	}
	if tokens[0] == ";" {
		return tokens[1:]
	}
	end := len(tokens)
	for i, tok := range tokens {
		if tok == "}" || tok == ";" {
			end = i
			break
		}
	}
	body := tokens[:end]
	if body[0] != "allow" && body[0] != "deny" {
		p.errs = append(p.errs, errf(lineNo, "template body must be allow/deny rules, got %q", body[0]))
		return tokens[end:]
	}
	declared := map[string]bool{}
	for _, param := range p.curTmpl.Params {
		declared[param] = true
	}
	for _, tok := range body {
		if strings.HasPrefix(tok, "$") && !declared[tok[1:]] {
			p.errs = append(p.errs, errf(lineNo, "template %q references undeclared parameter %s", p.curTmpl.Name, tok))
		}
	}
	p.curTmpl.Body = append(p.curTmpl.Body, TemplateLine{Tokens: body, Line: lineNo})
	return tokens[end:]
}

// ParseRuleStmt parses one allow/deny statement's tokens (PDP left for
// the caller to attribute). Exported for the compile stage, which parses
// template bodies after parameter substitution.
func ParseRuleStmt(tokens []string, line int) (RuleStmt, *ParseError) {
	stmt := RuleStmt{Line: line, Text: strings.Join(tokens, " ")}
	switch tokens[0] {
	case "allow":
		stmt.Action = policy.ActionAllow
	case "deny":
		stmt.Action = policy.ActionDeny
	default:
		return stmt, errf(line, "want allow or deny, got %q", tokens[0])
	}
	rest := tokens[1:]
	for len(rest) > 0 {
		switch rest[0] {
		case "proto":
			if len(rest) < 2 {
				return stmt, errf(line, "proto needs a value")
			}
			props, err := protoProps(rest[1], line)
			if err != nil {
				return stmt, err
			}
			stmt.Props = props
			rest = rest[2:]
		case "from":
			ref, n, err := parseEndpointRef(rest[1:], line)
			if err != nil {
				return stmt, err
			}
			stmt.Src = ref
			rest = rest[1+n:]
		case "to":
			ref, n, err := parseEndpointRef(rest[1:], line)
			if err != nil {
				return stmt, err
			}
			stmt.Dst = ref
			rest = rest[1+n:]
		case "between":
			if stmt.Window.HasTime {
				return stmt, errf(line, "duplicate between clause")
			}
			if len(rest) < 2 {
				return stmt, errf(line, "between needs HH:MM-HH:MM")
			}
			start, end, err := parseClockRange(rest[1], line)
			if err != nil {
				return stmt, err
			}
			stmt.Window.HasTime = true
			stmt.Window.StartMin, stmt.Window.EndMin = start, end
			rest = rest[2:]
		case "days":
			if stmt.Window.Days != 0 {
				return stmt, errf(line, "duplicate days clause")
			}
			mask, n, err := parseDays(rest[1:], line)
			if err != nil {
				return stmt, err
			}
			stmt.Window.Days = mask
			rest = rest[1+n:]
		default:
			return stmt, errf(line, "unexpected token %q", rest[0])
		}
	}
	return stmt, nil
}

func parseClockRange(s string, line int) (start, end int, err *ParseError) {
	lo, hi, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, errf(line, "bad time range %q (want HH:MM-HH:MM)", s)
	}
	parseClock := func(c string) (int, bool) {
		h, m, ok := strings.Cut(c, ":")
		if !ok {
			return 0, false
		}
		hv, err1 := strconv.Atoi(h)
		mv, err2 := strconv.Atoi(m)
		if err1 != nil || err2 != nil || hv < 0 || hv > 23 || mv < 0 || mv > 59 {
			return 0, false
		}
		return hv*60 + mv, true
	}
	start, okLo := parseClock(lo)
	end, okHi := parseClock(hi)
	if !okLo || !okHi {
		return 0, 0, errf(line, "bad time range %q (want HH:MM-HH:MM)", s)
	}
	if start == end {
		return 0, 0, errf(line, "empty time range %q", s)
	}
	return start, end, nil
}

var dayNames = map[string]time.Weekday{
	"sun": time.Sunday, "mon": time.Monday, "tue": time.Tuesday,
	"wed": time.Wednesday, "thu": time.Thursday, "fri": time.Friday,
	"sat": time.Saturday,
}

var dayOrder = [7]string{"sun", "mon", "tue", "wed", "thu", "fri", "sat"}

// parseDays consumes day names, ranges and commas (mon-fri / sat,sun),
// returning the bitmask and tokens consumed.
func parseDays(tokens []string, line int) (mask uint8, consumed int, err *ParseError) {
	for consumed < len(tokens) {
		tok := tokens[consumed]
		if tok == "," {
			consumed++
			continue
		}
		lo, hi, isRange := strings.Cut(tok, "-")
		if isRange {
			from, okLo := dayNames[lo]
			to, okHi := dayNames[hi]
			if !okLo || !okHi {
				if consumed == 0 {
					return 0, 0, errf(line, "bad day range %q", tok)
				}
				break
			}
			for d := from; ; d = (d + 1) % 7 {
				mask |= 1 << uint(d)
				if d == to {
					break
				}
			}
			consumed++
			continue
		}
		d, ok := dayNames[tok]
		if !ok {
			break
		}
		mask |= 1 << uint(d)
		consumed++
	}
	if consumed == 0 {
		return 0, 0, errf(line, "days needs day names (mon-fri, sat,sun)")
	}
	return mask, consumed, nil
}

// daysString renders a day mask canonically: a single contiguous range as
// lo-hi, anything else as a comma list.
func daysString(mask uint8) string {
	if mask == 0 {
		return ""
	}
	// Detect one contiguous run (possibly wrapping): exactly one position
	// where a set bit follows an unset bit.
	starts := 0
	start := -1
	for d := 0; d < 7; d++ {
		prev := (d + 6) % 7
		if mask&(1<<uint(d)) != 0 && mask&(1<<uint(prev)) == 0 {
			starts++
			start = d
		}
	}
	if starts == 1 && mask != 0x7f {
		end := start
		for mask&(1<<uint((end+1)%7)) != 0 {
			end = (end + 1) % 7
		}
		if start == end {
			return dayOrder[start]
		}
		return dayOrder[start] + "-" + dayOrder[end]
	}
	if mask == 0x7f {
		return "sun-sat"
	}
	var parts []string
	for d := 0; d < 7; d++ {
		if mask&(1<<uint(d)) != 0 {
			parts = append(parts, dayOrder[d])
		}
	}
	return strings.Join(parts, ",")
}

func protoProps(name string, line int) (policy.FlowProperties, *ParseError) {
	ipv4 := netpkt.EtherTypeIPv4
	arp := netpkt.EtherTypeARP
	switch name {
	case "tcp":
		p := netpkt.ProtoTCP
		return policy.FlowProperties{EtherType: &ipv4, IPProto: &p}, nil
	case "udp":
		p := netpkt.ProtoUDP
		return policy.FlowProperties{EtherType: &ipv4, IPProto: &p}, nil
	case "icmp":
		p := netpkt.ProtoICMP
		return policy.FlowProperties{EtherType: &ipv4, IPProto: &p}, nil
	case "ip":
		return policy.FlowProperties{EtherType: &ipv4}, nil
	case "arp":
		return policy.FlowProperties{EtherType: &arp}, nil
	default:
		return policy.FlowProperties{}, errf(line, "unknown proto %q", name)
	}
}

// endpoint field keywords.
var endpointKeywords = map[string]bool{
	"user": true, "host": true, "ip": true, "port": true,
	"mac": true, "switchport": true, "dpid": true,
}

// parseEndpointRef consumes endpoint fields plus group/role references
// until a non-endpoint token.
func parseEndpointRef(tokens []string, line int) (EndpointRef, int, *ParseError) {
	var ref EndpointRef
	consumed := 0
	for len(tokens) >= 2 && (endpointKeywords[tokens[0]] || tokens[0] == "group" || tokens[0] == "role") {
		switch tokens[0] {
		case "group", "role":
			if ref.Group != "" || ref.Role != "" {
				return ref, 0, errf(line, "endpoint already references %s", refName(ref))
			}
			if tokens[0] == "group" {
				ref.Group = tokens[1]
			} else {
				ref.Role = tokens[1]
			}
			tokens = tokens[2:]
			consumed += 2
		default:
			spec, n, err := parseEndpoint(tokens, line)
			if err != nil {
				return ref, 0, err
			}
			merged, conflict := MergeSpecs(ref.Spec, spec)
			if conflict != "" {
				return ref, 0, errf(line, "duplicate %s in endpoint", conflict)
			}
			ref.Spec = merged
			tokens = tokens[n:]
			consumed += n
		}
	}
	if consumed == 0 {
		got := "nothing"
		if len(tokens) > 0 {
			got = fmt.Sprintf("%q", tokens[0])
		}
		return ref, 0, errf(line, "expected endpoint fields, got %s", got)
	}
	return ref, consumed, nil
}

func refName(ref EndpointRef) string {
	if ref.Group != "" {
		return "group " + ref.Group
	}
	return "role " + ref.Role
}

// MergeSpecs overlays b's set fields onto a, reporting the first field
// both sides set differently ("" when compatible). The compile stage uses
// it to combine group-member and role specs with a rule's literal fields.
func MergeSpecs(a, b policy.EndpointSpec) (merged policy.EndpointSpec, conflict string) {
	merged = a
	if b.User != "" {
		if a.User != "" && a.User != b.User {
			return a, "user"
		}
		merged.User = b.User
	}
	if b.Host != "" {
		if a.Host != "" && a.Host != b.Host {
			return a, "host"
		}
		merged.Host = b.Host
	}
	if b.IP != nil {
		if a.IP != nil && *a.IP != *b.IP {
			return a, "ip"
		}
		merged.IP = b.IP
	}
	if b.Port != nil {
		if a.Port != nil && *a.Port != *b.Port {
			return a, "port"
		}
		merged.Port = b.Port
	}
	if b.MAC != nil {
		if a.MAC != nil && *a.MAC != *b.MAC {
			return a, "mac"
		}
		merged.MAC = b.MAC
	}
	if b.SwitchPort != nil {
		if a.SwitchPort != nil && *a.SwitchPort != *b.SwitchPort {
			return a, "switchport"
		}
		merged.SwitchPort = b.SwitchPort
	}
	if b.DPID != nil {
		if a.DPID != nil && *a.DPID != *b.DPID {
			return a, "dpid"
		}
		merged.DPID = b.DPID
	}
	return merged, ""
}

// parseEndpoint consumes literal key/value pairs until a non-endpoint
// token, returning the spec and the number of tokens consumed.
func parseEndpoint(tokens []string, line int) (policy.EndpointSpec, int, *ParseError) {
	var spec policy.EndpointSpec
	consumed := 0
	seen := map[string]bool{}
	for len(tokens) >= 2 && endpointKeywords[tokens[0]] {
		key, val := tokens[0], tokens[1]
		if seen[key] {
			return spec, 0, errf(line, "duplicate %s in endpoint", key)
		}
		seen[key] = true
		switch key {
		case "user":
			spec.User = val
		case "host":
			spec.Host = val
		case "ip":
			ip, err := netpkt.ParseIPv4(val)
			if err != nil {
				return spec, 0, errf(line, "bad ip %q", val)
			}
			spec.IP = &ip
		case "port":
			p, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return spec, 0, errf(line, "bad port %q", val)
			}
			port := uint16(p)
			spec.Port = &port
		case "mac":
			mac, err := netpkt.ParseMAC(val)
			if err != nil {
				return spec, 0, errf(line, "bad mac %q", val)
			}
			spec.MAC = &mac
		case "switchport":
			p, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return spec, 0, errf(line, "bad switchport %q", val)
			}
			sp := uint32(p)
			spec.SwitchPort = &sp
		case "dpid":
			d, err := strconv.ParseUint(val, 0, 64)
			if err != nil {
				return spec, 0, errf(line, "bad dpid %q", val)
			}
			spec.DPID = &d
		}
		tokens = tokens[2:]
		consumed += 2
	}
	if consumed == 0 {
		got := "nothing"
		if len(tokens) > 0 {
			got = fmt.Sprintf("%q", tokens[0])
		}
		return spec, 0, errf(line, "expected endpoint fields, got %s", got)
	}
	return spec, consumed, nil
}

// Format renders a document back to canonical textual form: groups and
// roles first, then each pdp followed by its templates and rules.
// Parse(Format(doc)) reproduces the document's structure (line numbers
// aside), which is what GET /v1/policy serves.
func Format(doc *Document) string {
	var b strings.Builder
	for _, g := range doc.Groups {
		fmt.Fprintf(&b, "group %s {\n", g.Name)
		for _, m := range g.Members {
			fmt.Fprintf(&b, "  %s\n", m.String())
		}
		b.WriteString("}\n")
	}
	for _, r := range doc.Roles {
		var spec strings.Builder
		writeEndpoint(&spec, "", r.Spec)
		fmt.Fprintf(&b, "role %s {%s }\n", r.Name, spec.String())
	}
	for i, decl := range doc.PDPs {
		if i > 0 || len(doc.Groups) > 0 || len(doc.Roles) > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "pdp %s priority %d\n", decl.Name, decl.Priority)
		for _, t := range doc.Templates {
			if t.PDP != decl.Name {
				continue
			}
			fmt.Fprintf(&b, "template %s(%s) {\n", t.Name, strings.Join(t.Params, ", "))
			for _, line := range t.Body {
				fmt.Fprintf(&b, "  %s\n", strings.Join(line.Tokens, " "))
			}
			b.WriteString("}\n")
		}
		for _, r := range doc.Rules {
			if r.PDP != decl.Name {
				continue
			}
			b.WriteString(FormatStmt(r))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatStmt renders one rule statement as a policy-file line (without
// the pdp context).
func FormatStmt(s RuleStmt) string {
	var b strings.Builder
	if s.Action == policy.ActionAllow {
		b.WriteString("allow")
	} else {
		b.WriteString("deny")
	}
	writeProto(&b, s.Props)
	writeEndpointRef(&b, " from", s.Src)
	writeEndpointRef(&b, " to", s.Dst)
	if w := s.Window.String(); w != "" {
		b.WriteString(" " + w)
	}
	return b.String()
}

func writeEndpointRef(b *strings.Builder, prefix string, ref EndpointRef) {
	var parts []string
	if ref.Group != "" {
		parts = append(parts, "group "+ref.Group)
	}
	if ref.Role != "" {
		parts = append(parts, "role "+ref.Role)
	}
	var spec strings.Builder
	writeEndpoint(&spec, "", ref.Spec)
	if s := strings.TrimSpace(spec.String()); s != "" {
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return
	}
	b.WriteString(prefix + " " + strings.Join(parts, " "))
}

func writeProto(b *strings.Builder, props policy.FlowProperties) {
	if props.EtherType == nil {
		return
	}
	switch {
	case *props.EtherType == netpkt.EtherTypeARP:
		b.WriteString(" proto arp")
	case props.IPProto == nil:
		b.WriteString(" proto ip")
	case *props.IPProto == netpkt.ProtoTCP:
		b.WriteString(" proto tcp")
	case *props.IPProto == netpkt.ProtoUDP:
		b.WriteString(" proto udp")
	case *props.IPProto == netpkt.ProtoICMP:
		b.WriteString(" proto icmp")
	}
}

// FormatRule renders one flat (lowered) rule as a policy-file statement.
func FormatRule(r policy.Rule) string {
	var b strings.Builder
	if r.Action == policy.ActionAllow {
		b.WriteString("allow")
	} else {
		b.WriteString("deny")
	}
	writeProto(&b, r.Props)
	writeEndpoint(&b, " from", r.Src)
	writeEndpoint(&b, " to", r.Dst)
	return b.String()
}

func writeEndpoint(b *strings.Builder, prefix string, e policy.EndpointSpec) {
	var parts []string
	if e.User != "" {
		parts = append(parts, "user "+e.User)
	}
	if e.Host != "" {
		parts = append(parts, "host "+e.Host)
	}
	if e.IP != nil {
		parts = append(parts, "ip "+e.IP.String())
	}
	if e.Port != nil {
		parts = append(parts, fmt.Sprintf("port %d", *e.Port))
	}
	if e.MAC != nil {
		parts = append(parts, "mac "+e.MAC.String())
	}
	if e.SwitchPort != nil {
		parts = append(parts, fmt.Sprintf("switchport %d", *e.SwitchPort))
	}
	if e.DPID != nil {
		parts = append(parts, fmt.Sprintf("dpid %#x", *e.DPID))
	}
	if len(parts) == 0 {
		return
	}
	b.WriteString(prefix + " " + strings.Join(parts, " "))
}
