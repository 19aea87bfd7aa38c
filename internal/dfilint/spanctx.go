package dfilint

import (
	"go/ast"
	"go/types"
	"strings"
)

// spanCtx flags span-context drops. A function that receives a bus.Event
// or an obs.SpanContext holds the causal chain for the work it is doing;
// every downstream Publish call and every *Ctx call it makes must carry
// that context (or a value derived from it, such as ev.Trace or an Event
// literal whose Trace field copies it). Calling Publish with a fresh
// zero-Trace event, or an ApplyCtx/IsolateCtx with a zero SpanContext,
// silently severs the trace: the downstream spans re-root and the
// sensor→binding→apply→flush chain the tracing pipeline exists to
// reconstruct falls apart — with no runtime symptom at all.
//
// The analysis is per function: the Event/SpanContext parameters seed a
// taint set, assignments whose right-hand side mentions a tainted value
// extend it (sc := ev.Trace, ev2 := bus.Event{Trace: sc}), and each
// Publish / *Ctx call is then required to mention at least one tainted
// value among its arguments.
type spanCtx struct{}

func newSpanCtx() *spanCtx { return &spanCtx{} }

func (*spanCtx) Name() string { return "spanctx" }

func (*spanCtx) Doc() string {
	return "flags Publish and *Ctx calls that drop a span context the enclosing function received"
}

func (a *spanCtx) Run(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.checkFunc(pass, fd)
		}
	}
}

func (a *spanCtx) checkFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	tainted := make(map[types.Object]bool)
	var carrier string // the first carrier parameter's name, for diagnostics
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil || !isSpanCarrier(obj.Type()) {
				continue
			}
			tainted[obj] = true
			if carrier == "" {
				carrier = name.Name
			}
		}
	}
	if len(tainted) == 0 {
		return
	}
	// Source-order walk: assignments extend the taint set before later
	// calls are checked against it. Function literals are walked too —
	// closures capture the parameters and inherit the obligation.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			taintedRHS := false
			for _, rhs := range x.Rhs {
				if mentionsTainted(info, rhs, tainted) {
					taintedRHS = true
				}
			}
			if taintedRHS {
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			name, ok := calleeName(x)
			if !ok || !isCtxSink(name) {
				return true
			}
			for _, arg := range x.Args {
				if mentionsTainted(info, arg, tainted) {
					return true
				}
			}
			pass.Report(x.Pos(), "%s call drops the span context received via %q; pass it (or a value derived from it) so the trace chain stays intact", name, carrier)
		}
		return true
	})
}

// isCtxSink reports whether a callee name is a span-context sink: bus
// publication or one of the *Ctx entry points (Manager.ApplyCtx,
// IsolateCtx, ...).
func isCtxSink(name string) bool {
	return name == "Publish" || (len(name) > len("Ctx") && strings.HasSuffix(name, "Ctx"))
}

// calleeName extracts the bare name a call invokes, through selectors.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// mentionsTainted reports whether e references any tainted object.
func mentionsTainted(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isSpanCarrier reports whether t (possibly a pointer) is bus.Event or
// obs.SpanContext. Like the rest of dfilint's type checks it keys on
// package and type name so the fixture module matches too.
func isSpanCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Name() == "Event" && obj.Pkg().Name() == "bus":
		return true
	case obj.Name() == "SpanContext" && obj.Pkg().Name() == "obs":
		return true
	}
	return false
}
